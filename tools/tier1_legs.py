"""Run tier-1 on every CI Python that pyenv holds, without installing anything.

CI runs tier-1 on 3.11 to 3.13. Locally pytest may be installed for
one pyenv interpreter only, but the pure-Python test packages of the
interpreter that runs this script load on the others. So this script
links those packages into a temporary directory outside the repository,
puts it on ``PYTHONPATH`` after ``src``, and runs two legs on each
interpreter found under ``~/.pyenv/versions/3.1[1-9]*``: tier-1, and
tier-1 with ``-X dev -W error``. It prints one line per leg, then
pytest's ``FAILED`` and ``ERROR`` summary lines of that leg, and exits 1
if any leg fails, 2 if no interpreter or package is found.

Run it from any directory with the interpreter that has pytest:

    python tools/tier1_legs.py
"""

import os
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Module and package names, globbed in the site-packages that holds pytest.
PACKAGES = [
    "pytest",
    "_pytest",
    "pluggy",
    "iniconfig",
    "packaging",
    "py.py",
    "pygments",
    "hypothesis",
    "_hypothesis_*.py",
    "sortedcontainers",
    "attr",
    "attrs",
    "sympy",
    "mpmath",
    "typing_extensions.py",
]

LEGS = {
    "tier-1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "tier-1 -X dev -W error": ["-X", "dev", "-W", "error", "-m", "pytest", "-q"],
}


def main() -> int:
    interpreters = sorted(Path.home().glob(".pyenv/versions/3.1[1-9]*/bin/python"))
    spec = find_spec("pytest")
    if not interpreters or spec is None:
        print("no Python 3.11+ under ~/.pyenv/versions, or no pytest beside this interpreter")
        return 2
    site = Path(spec.origin).parent.parent
    failed = False
    with tempfile.TemporaryDirectory(prefix="tier1-legs-") as packages:
        for pattern in PACKAGES:
            for source in site.glob(pattern):
                os.symlink(source, Path(packages) / source.name)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), packages])}
        for python in interpreters:
            version = python.parent.parent.name
            for leg, arguments in LEGS.items():
                result = subprocess.run([str(python), *arguments], cwd=REPO, env=env, capture_output=True, text=True)
                lines = result.stdout.strip().splitlines() or ["no output"]
                failed |= result.returncode != 0
                print(f"{version} {leg}: {'ok' if result.returncode == 0 else 'FAILED'}: {lines[-1]}", flush=True)
                # pytest's short summary names each failing test.
                for line in lines:
                    if line.startswith(("FAILED ", "ERROR ")):
                        print(f"    {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

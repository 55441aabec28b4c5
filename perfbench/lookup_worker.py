"""Library process for the lookup workload.

Usage, with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/lookup_worker.py CALLS.json

Performs each ``words.rank`` / ``words.unrank`` call in order and prints
a JSON list with one ``[status, value, seconds]`` entry per call, where
a documented domain error gives ``["error", [exception name, code], s]``.
"""

from __future__ import annotations

import json
import sys
import time


def perform(calls: list[dict]) -> list[list]:
    from motzkin import words
    from motzkin.errors import MotzkinError

    results = []
    for call in calls:
        function = words.rank if call["op"] == "rank" else words.unrank
        start = time.perf_counter()
        try:
            value, status = function(call["arg"]), "ok"
        except MotzkinError as exc:
            value, status = [type(exc).__name__, exc.code], "error"
        results.append([status, value, time.perf_counter() - start])
    return results


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        json.dump(perform(json.load(handle)), sys.stdout)

"""The benchmark's tracer wraps package functions by name; a rename or a
deletion must fail here, not only in a traced benchmark run."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, paths in tracer.TARGETS.items() for path in paths]


@pytest.mark.parametrize("module_name, path", load_targets())
def test_target_resolves_in_owner_dict(module_name, path):
    # Resolve exactly as Tracer.install does: the attribute must be
    # defined on its owner, not inherited.
    module = importlib.import_module(f"motzkin.{module_name}")
    *owners, attr = path.split(".")
    owner = functools.reduce(getattr, owners, module)
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])

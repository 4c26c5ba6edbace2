"""Every library name that bench/tracing.py patches still resolves.

The tracer looks its targets up by string, so a rename in the package
would only show when the benchmark runs with ``--trace``.  The lists are
read from the tracer itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lattice_higgs import oracle

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name", [entry[:2] for entry in tracing.FUNCTIONS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"lattice_higgs.{module}"), name))


@pytest.mark.parametrize("module, cls, method", [entry[:3] for entry in tracing.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method):
    # instrument() patches the method found in the class __dict__, not an inherited one
    owner = getattr(importlib.import_module(f"lattice_higgs.{module}"), cls)
    assert callable(vars(owner)[method])


def test_box_index_cache_can_be_cleared():
    # the benchmark clears the real cache before each set-up repeat
    assert callable(oracle.box_index.cache_clear)

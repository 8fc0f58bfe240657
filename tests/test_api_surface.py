"""The public surface: every name a module lists in __all__ exists.

A name deleted from a module but left in its __all__ (or in a package
re-export) breaks `from ... import *`; these tests find it at once.  The
kernel ops the benchmark counts by name must exist too: a renamed op would
read as zero calls instead of failing.
"""

import ast
import importlib
from pathlib import Path

import pytest

from deltalin._kernel import PureKernel

PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

MODULES = (
    "deltalin",
    "deltalin.ring",
    "deltalin.matrix",
    "deltalin.equations",
    "deltalin.galois",
    "deltalin.io",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    assert len(set(module.__all__)) == len(module.__all__), name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], name


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


def _perfbench_kernel_ops():
    """The KERNEL_OPS tuple of perfbench/run.py, read without importing it."""
    tree = ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "KERNEL_OPS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no KERNEL_OPS")


def test_benchmark_kernel_ops_are_kernel_methods():
    ops = _perfbench_kernel_ops()
    assert ops
    for name in ops:
        assert not name.startswith("_"), name
        assert callable(getattr(PureKernel, name, None)), name

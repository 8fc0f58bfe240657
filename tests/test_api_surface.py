"""The public surface: every name a module lists in __all__ exists.

A name deleted from a module but left in its __all__ (or in a package
re-export) breaks `from ... import *`; these tests find it at once.  The
kernel ops the benchmark counts by name must exist too: a renamed op would
read as zero calls instead of failing.  So must the entry points its tracer
patches by name, or a rename would fail only inside a traced benchmark run.
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


PERFBENCH_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The entry points `install` wraps by name; each must be among the names read.
TRACED = (
    "deltalin.equations.solve",
    "deltalin.equations.residual",
    "deltalin.equations.lambda_sl",
    "deltalin.equations.Lambda_so",
    "deltalin.equations.matrix_sqrt_one_mod_p",
    "deltalin.galois.enumerate_N_delta",
    "deltalin.galois.GuChecker.__call__",
    "deltalin.ring.RingContext.teichmueller",
)


def _dotted(node):
    """'a.b.c' for the attribute chain a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _perfbench_traced_names():
    """The deltalin names perfbench/tracing.py's `install` reads, without
    importing it: every attribute chain on a deltalin module it imports, and
    the attribute named by each `patch(module, "name", ...)` (the names of
    `io.__all__` it patches are checked by `test_all_names_resolve`)."""
    tree = ast.parse(PERFBENCH_TRACING.read_text(encoding="utf-8"))
    install = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(install)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("deltalin")
    }
    names = set()
    for node in ast.walk(install):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain.split(".")[0] in modules:
            names.add(chain)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
            module, attr = node.args[:2]
            if isinstance(attr, ast.Constant):  # not the loop over io.__all__
                names.add(f"{module.id}.{attr.value}")
    return {modules[n.split(".")[0]] + n[n.index(".") :] for n in names}


def test_benchmark_traced_names_exist():
    names = _perfbench_traced_names()
    assert set(TRACED) <= names
    for name in sorted(names):
        module, _, rest = name.partition(".")
        module = f"{module}.{rest.split('.')[0]}"
        obj = importlib.import_module(module)
        for attr in rest.split(".")[1:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


SRC = Path(__file__).resolve().parents[1] / "src" / "deltalin"

# The methods of the one value base under RingElement and PMatrix: the
# precision-claim rules, the peer check and the coefficient-wise ops.
VALUE_BASE = (
    "__eq__", "__hash__", "eq_at", "with_prec", "assume_prec", "_require",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "valuation", "is_zero",
)


def _class_members(path):
    """The names each class body in `path` defines, by def or by assignment."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, ast.Assign):
                yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_value_base_is_written_once():
    """Each method of the value base is defined once across ring.py and
    matrix.py, and the library reads an element's coefficients as `.flat`
    only (`coeffs` is the public alias)."""
    members = [name for f in ("ring.py", "matrix.py") for name in _class_members(SRC / f)]
    assert {name: members.count(name) for name in VALUE_BASE} == dict.fromkeys(VALUE_BASE, 1)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
        assert reads == [], path.name


# The polynomial library over F_p that the residue field once carried beside
# the kernel.
RESIDUE_POLY_LIBRARY = (
    "_trim", "poly_mul", "poly_mod", "poly_sub", "poly_mulmod", "poly_powmod", "poly_gcd",
)


def test_residue_field_is_the_kernel():
    """Arithmetic mod f is written once: `_residue` computes in F_p[x]/(f)
    with the kernel at N = 1 and defines no polynomial arithmetic of its own."""
    tree = ast.parse((SRC / "_residue.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint(RESIDUE_POLY_LIBRARY), defined & set(RESIDUE_POLY_LIBRARY)
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("_kernel", "PureKernel") in imported

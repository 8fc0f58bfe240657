"""Spans recorded around calls into deltalin's layers, from outside the library.

A span is (name, start, end, parent, op): `parent` is the index of the span
that was open when this one started (-1 for a root) and `op` is the id of the
benchmark op it belongs to (-1 outside ops).  Spans live in parallel arrays
in memory and are written out when the run ends.

`install` wraps the public entry points of every layer: a counting proxy on
each context's kernel (L0), the PMatrix / RingElement methods (L1), the
twists (L2), `solve`, `residual`, `GuChecker.__call__` and
`enumerate_N_delta` (L3), the `io` codecs, context construction,
Teichmueller lifts and the sampler.  Nothing inside `src/` is edited.

The layer of a span is the part of its name before the first dot.  A span's
self time is its duration minus the durations of its direct children.
"""

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

OP_SPAN = "bench.op"  # the benchmark's span around one op; its children are the op's work

# Arithmetic operators count as public methods of the wrapper classes.
OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
     "__rmul__", "__matmul__", "__pow__", "__eq__")
)

# Leaf draws of the sampler; their cost shows inside the draws that call them.
SAMPLER_LEAVES = frozenset(("u64", "below"))


class Trace:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.iterations = {}  # span index of a solve -> SolveReport.iterations

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, name):
        return _Span(self, self.name_id(name))

    def row(self, i):
        """Span i as (name, start, end, parent, op)."""
        return (self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i])

    def rows(self):
        return [self.row(i) for i in range(len(self))]

    def save(self, path, compress=False):
        """Write the spans as JSON, one span at a time to keep memory flat."""
        opener = gzip.open if compress else open
        with opener(path, "wt") as fh:
            fh.write('{"iterations": %s, "spans": [' % json.dumps(sorted(self.iterations.items())))
            for i in range(len(self)):
                fh.write(("," if i else "") + json.dumps(self.row(i)))
            fh.write("]}")


class _Span:
    __slots__ = ("trace", "nid", "i")

    def __init__(self, trace, nid):
        self.trace = trace
        self.nid = nid

    def __enter__(self):
        self.i = self.trace.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.trace.exit(self.i)
        return False


def wrap(trace, name, fn):
    nid = trace.name_id(name)
    enter, exit_ = trace.enter, trace.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(i)

    return traced


class KernelProxy:
    """Stands in for `ctx.kernel`: every public kernel method becomes a span.

    Calls the kernel makes to itself go to the real object and are not
    counted; only calls from the layers above are.
    """

    def __init__(self, kernel, trace):
        self._kernel = kernel
        for name in dir(kernel):
            attr = getattr(kernel, name)
            if not name.startswith("_") and callable(attr):
                setattr(self, name, wrap(trace, "kernel." + name, attr))

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _patch_everywhere(original, replacement):
    """Rebind every deltalin module attribute that refers to `original`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "deltalin" or modname.startswith("deltalin."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _wrap_methods(trace, cls, layer, skip=frozenset()):
    for name, attr in list(vars(cls).items()):
        if name in skip or (name.startswith("_") and name not in OPERATORS):
            continue
        if isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(wrap(trace, f"{layer}.{name}", attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, wrap(trace, f"{layer}.{name}", attr))


def install(trace):
    """Wrap deltalin's layer entry points so that calls record spans in `trace`.

    Import the deltalin modules that will run before calling this; contexts
    built before it keep their unproxied kernels.
    """
    import deltalin.equations as equations
    import deltalin.galois as galois
    import deltalin.io as io
    import deltalin.matrix as matrix
    import deltalin.ring as ring
    import deltalin.sampling as sampling

    def patch(module, attr, name):
        original = getattr(module, attr)
        _patch_everywhere(original, wrap(trace, name, original))

    make_context = ring.make_context

    def traced_make_context(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        ctx.kernel = KernelProxy(ctx.kernel, trace)
        return ctx

    _patch_everywhere(make_context, wrap(trace, "ctx.make_context", traced_make_context))

    solve = equations.solve

    def counting_solve(*args, **kwargs):
        rep = solve(*args, **kwargs)
        trace.iterations[trace.stack[-1]] = rep.iterations  # the enclosing solve span
        return rep

    _patch_everywhere(solve, wrap(trace, "solve.solve", counting_solve))
    patch(equations, "residual", "solve.residual")
    patch(equations, "lambda_sl", "twist.lambda_sl")
    patch(equations, "Lambda_so", "twist.Lambda_so")
    patch(equations, "matrix_sqrt_one_mod_p", "twist.sqrt")
    patch(galois, "enumerate_N_delta", "galois.enumerate")
    galois.GuChecker.__call__ = wrap(trace, "galois.check", galois.GuChecker.__call__)
    for name in io.__all__:
        patch(io, name, "io.decode" if "from_json" in name else "io.encode")

    _wrap_methods(trace, matrix.PMatrix, "matrix")
    _wrap_methods(trace, ring.RingElement, "ring")
    ring.RingContext.teichmueller = wrap(trace, "ctx.teichmueller", ring.RingContext.teichmueller)
    _wrap_methods(trace, sampling.Rng, "sampling", skip=SAMPLER_LEAVES)


# -- reading spans back ---------------------------------------------------------


def self_times(rows):
    """Self time of every span: its duration minus its direct children's."""
    self_s = [end - start for _, start, end, _, _ in rows]
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_of(name):
    return name.split(".", 1)[0]


def top_level(rows, selected):
    """Count and summed duration of the selected spans that have no selected
    ancestor, so that nested selections are not counted twice."""
    inside = [False] * len(rows)
    count, total = 0, 0.0
    for i, ((_, start, end, parent, _), hit) in enumerate(zip(rows, selected)):
        outer = parent >= 0 and inside[parent]
        inside[i] = hit or outer
        if hit and not outer:
            count += 1
            total += end - start
    return count, total


def per_op_self_error(rows, self_s):
    """Largest gap, over ops, between an op span's duration and the summed
    self times of every span recorded under that op."""
    sums, durs = {}, {}
    for (name, start, end, _, op), s in zip(rows, self_s):
        if op < 0:
            continue
        sums[op] = sums.get(op, 0.0) + s
        if name == OP_SPAN:
            durs[op] = end - start
    return max((abs(sums[op] - d) for op, d in durs.items()), default=0.0)

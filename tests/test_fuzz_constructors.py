"""Hypothesis fuzzing of the Python constructors: `make_context`,
`RingContext.element`, `PMatrix.from_rows`, `PMatrix.from_flat`,
`PMatrix.scalar` and `EquationSpec`.

Inputs are drawn from good values (ints and bools, lists and tuples of int
coefficients, elements of the ring at any claim, rows of such entries, a
flat of the right length) and bad ones (a value of the wrong type, a
container with no coefficient order, one coefficient too many, a float in
place of a coefficient, an element of another ring).  A constructor either
returns a canonical value, every coefficient in [0, q) and a claim no
higher than its inputs', or raises ParameterError (malformed input) or
DomainError (another ring's element); it never raises TypeError,
AttributeError, KeyError or a bare ValueError.  The element, matrix and
scalar constructors are held to the gate's rules: good coefficients build,
and each refusal has the class its fault calls for.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from deltalin.equations import EquationSpec
from deltalin.errors import DomainError, ParameterError
from deltalin.matrix import PMatrix
from deltalin.ring import RingContext, RingElement, make_context

FUZZ = settings(max_examples=150)

CONTEXTS = [(5, 1, 6), (3, 2, 4), (13, 2, 3)]
# rings other than those of CONTEXTS: another prime, another modulus, another N
OTHERS = [(7, 1, 6), (5, 2, 4, (2, 4, 1)), (5, 2, 4)]


@functools.cache
def _context(k):
    return make_context(*CONTEXTS[k])


@functools.cache
def _other(k):
    return make_context(*OTHERS[k])


ints = st.integers(-(10 ** 30), 10 ** 30) | st.booleans()
junk = st.sampled_from([
    None, 1.5, 2.0, "3", "", b"\x01\x02", bytearray(b"\x01\x02"), {1, 2}, frozenset(), {0: 1, 1: 2},
    range(2), iter([1]), object(), [1.5], [None], ["1"], [[1]], (1.0, 2), 3 + 0j,
])


def _container(draw, values):
    return list(values) if draw(st.booleans()) else tuple(values)


@st.composite
def coefficients(draw, ctx, count):
    """A list or tuple of `count` ints."""
    return _container(draw, draw(st.lists(ints, min_size=count, max_size=count)))


@st.composite
def element_of(draw, ctx):
    """An element of ctx at a claim from 0 to N."""
    e = ctx.element(draw(coefficients(ctx, ctx.m)))
    return e.with_prec(draw(st.integers(0, ctx.N)))


@st.composite
def entry(draw, ctx, good=False):
    """What `ctx.element` takes, or, unless good, half of the time what it
    refuses."""
    kind = draw(st.integers(0, 2 if good else 5))
    if kind == 0:
        return draw(ints)
    if kind == 1:
        return draw(coefficients(ctx, draw(st.integers(0, ctx.m))))
    if kind == 2:
        return draw(element_of(ctx))
    if kind == 3:
        return draw(coefficients(ctx, ctx.m + draw(st.integers(1, 2))))
    if kind == 4:
        return draw(element_of(_other(draw(st.integers(0, len(OTHERS) - 1)))))
    return draw(junk)


def _outcome(build):
    """(build()'s value, None), or (None, the class) if it raised one of the
    two documented errors; any other exception fails the test."""
    try:
        return build(), None
    except (ParameterError, DomainError) as exc:
        return None, type(exc)


def _verdict(ctx, v):
    """What `ctx.element(v)` must do: None (build), ParameterError for
    malformed coefficients, DomainError for an element of another ring."""
    if isinstance(v, int):
        return None
    if isinstance(v, RingElement):
        return None if v.ctx.same(ctx) else DomainError
    if isinstance(v, (list, tuple)) and len(v) <= ctx.m and all(isinstance(c, int) for c in v):
        return None
    return ParameterError


def _claim(v, ctx):
    """The claim an input of `ctx.element` brings: an element's own, else N."""
    return v.known_prec if isinstance(v, RingElement) and v.ctx.same(ctx) else ctx.N


def _canonical(value, ctx, length, claim):
    q = ctx.kernel.q
    assert value.ctx is ctx
    assert len(value.flat) == length and type(value.flat) is tuple
    assert all(type(c) is int and 0 <= c < q for c in value.flat)
    assert value.known_prec <= claim


@FUZZ
@given(
    p=st.sampled_from([3, 5, 7, 13, 2, 9, 1, 0, -5, 5.0, True, "5", None]),
    m=st.sampled_from([1, 2, 3, 0, -1, 9, 2.0, True, None]),
    N=st.sampled_from([2, 3, 5, 1, 0, -2, 1025, 3.0, None]),
    residue_poly=st.none() | st.lists(st.integers(-20, 20), max_size=4) | junk,
)
def test_make_context(p, m, N, residue_poly):
    ctx, error = _outcome(lambda: make_context(p, m, N, residue_poly))
    assert error in (None, ParameterError)
    if ctx is not None:
        assert isinstance(ctx, RingContext) and (ctx.p, ctx.m, ctx.N) == (p, m, N)
        assert ctx.kernel.q == p ** N
        assert all(0 <= c < ctx.kernel.q for c in ctx.modulus)


@FUZZ
@given(data=st.data(), k=st.integers(0, len(CONTEXTS) - 1))
def test_element(data, k):
    ctx = _context(k)
    v = data.draw(entry(ctx))
    e, error = _outcome(lambda: ctx.element(v))
    assert error is _verdict(ctx, v)
    if e is not None:
        _canonical(e, ctx, ctx.m, _claim(v, ctx))
        if isinstance(v, (list, tuple)):
            q = ctx.kernel.q
            assert e.flat == tuple(c % q for c in v) + (0,) * (ctx.m - len(v))


@FUZZ
@given(data=st.data(), k=st.integers(0, len(CONTEXTS) - 1), n=st.integers(1, 3))
def test_from_rows(data, k, n):
    ctx = _context(k)
    rows = [[data.draw(entry(ctx, good=True)) for _ in range(n)] for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 2))):  # entries that may be faulty
        rows[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = data.draw(entry(ctx))
    rows = [_container(data.draw, row) for row in rows]
    shape = data.draw(st.integers(0, 5))
    if shape == 0:  # a ragged matrix
        rows[0] = [*rows[0], 0]
    elif shape == 1:  # something else in place of the rows, or of a row
        if data.draw(st.booleans()):
            rows = data.draw(junk)
        else:
            rows[0] = data.draw(junk | ints)
    M, error = _outcome(lambda: PMatrix.from_rows(ctx, rows))
    square = (isinstance(rows, (list, tuple)) and len(rows) > 0
              and all(isinstance(r, (list, tuple)) and len(r) == len(rows) for r in rows))
    if not square:
        assert error is ParameterError
    else:  # the first faulty entry, row by row, decides
        assert error is next(filter(None, (_verdict(ctx, v) for row in rows for v in row)), None)
    if M is not None:
        assert M.n == len(rows)
        _canonical(M, ctx, M.n * M.n * ctx.m, min(_claim(v, ctx) for row in rows for v in row))


@FUZZ
@given(data=st.data(), k=st.integers(0, len(CONTEXTS) - 1), n=st.integers(1, 3))
def test_from_flat(data, k, n):
    ctx = _context(k)
    size = n * n * ctx.m
    flat = data.draw(
        coefficients(ctx, size)
        | st.integers(0, 2 * size + 1).flatmap(lambda c: coefficients(ctx, c))
        | st.lists(ints | junk, min_size=size, max_size=size)
        | junk
    )
    M, error = _outcome(lambda: PMatrix.from_flat(ctx, flat, n))
    good = (isinstance(flat, (list, tuple)) and len(flat) == size
            and all(isinstance(c, int) for c in flat))
    assert error is (None if good else ParameterError)
    if M is not None:
        assert M.n == n and len(flat) == size
        _canonical(M, ctx, size, ctx.N)
        assert M.flat == tuple(c % ctx.kernel.q for c in flat)


@FUZZ
@given(
    data=st.data(),
    k=st.integers(0, len(CONTEXTS) - 1),
    n=st.integers(1, 3) | st.sampled_from([0, 9, 2.0, True, None, "2"]),
)
def test_scalar(data, k, n):
    ctx = _context(k)
    v = data.draw(entry(ctx))
    M, error = _outcome(lambda: PMatrix.scalar(ctx, n, v))
    assert error is (_verdict(ctx, v) if type(n) is int and 1 <= n <= 8 else ParameterError)
    if M is not None:
        assert M.n == n
        _canonical(M, ctx, n * n * ctx.m, _claim(v, ctx))
        e = ctx.element(v)
        assert all(M.entry(i, j).flat == (e.flat if i == j else ctx.zero().flat)
                   for i in range(n) for j in range(n))


@FUZZ
@given(
    data=st.data(),
    k=st.integers(0, len(CONTEXTS) - 1),
    kind=st.sampled_from(["gl", "sl", "so", "GL", "", None, 1]),
    n=st.integers(1, 4) | st.sampled_from([0, 2.0, True, None, "2"]),
    variant=st.sampled_from([None, "sp", "so_even", "so_odd", "so", 1]),
)
def test_equation_spec(data, k, kind, n, variant):
    ctx = _context(k)
    dim = n if type(n) is int and 1 <= n <= 4 else 2
    alpha = data.draw(
        st.builds(PMatrix.zeros, st.just(ctx), st.just(dim))
        | st.builds(PMatrix.zeros, st.just(_other(0)), st.just(dim))
        | st.builds(PMatrix.identity, st.just(ctx), st.integers(1, 4))
        | st.builds(ctx.element, ints)
        | junk
    )
    spec, error = _outcome(lambda: EquationSpec(kind, n, alpha, variant))
    assert error in (None, ParameterError)
    if spec is not None:
        assert spec.ctx is alpha.ctx and spec.alpha.n == n and spec.kind in ("gl", "sl", "so")

#!/usr/bin/env python3
"""Time the kernel on a few representative workloads.

The workloads are the solver across equation types at m = 2 and m = 1,
an N^delta membership sweep and, at m = 3, a context build and two
solves; each prints its best time over --repeat runs.  A large --prec
(128 or more) shows how the solver scales with precision.

    python3 benchmarks/bench_kernels.py [--prec 16] [--repeat 5]

It imports deltalin from the checkout's `src/`, so it needs no install.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltalin.equations import EquationSpec, solve
from deltalin.galois import GuChecker, enumerate_N_delta
from deltalin.ring import make_context
from deltalin.sampling import Rng


def best_of(repeat, run):
    """The best time of `repeat` calls of run()."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_context(ctx, repeat):
    """make_context at ctx's (p, m, N), built afresh on every call."""
    return best_of(repeat, lambda: make_context(ctx.p, ctx.m, ctx.N))


def bench_solver(ctx, kind, variant, n, repeat):
    rng = Rng(1)
    spec = EquationSpec(kind, n, rng.delta_lie_alpha(ctx, kind, n, variant), variant)
    u0 = rng.gl(ctx, n)
    reports = []
    best = best_of(repeat, lambda: reports.append(solve(spec, u0)))
    assert reports[-1].residual_valuation == float("inf")
    return best


def bench_galois(ctx, repeat):
    rng = Rng(2)
    spec = EquationSpec("gl", 2, rng.matrix(ctx, 2))
    u = solve(spec, rng.gl(ctx, 2)).solution
    members = enumerate_N_delta(ctx, 2, ctx.p - 1)
    best = None
    for _ in range(repeat):
        checker = GuChecker(spec, u)
        t0 = time.perf_counter()
        ok = all(checker(v) for v in members)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert ok
    return best


WORKLOADS = (  # (name, p, m, bench)
    ("solve gl  n=4 p=13 m=2", 13, 2, lambda ctx, r: bench_solver(ctx, "gl", None, 4, r)),
    ("solve sl  n=3 p=13 m=2", 13, 2, lambda ctx, r: bench_solver(ctx, "sl", None, 3, r)),
    ("solve so  n=4 p=13 m=2 (sp)", 13, 2, lambda ctx, r: bench_solver(ctx, "so", "sp", 4, r)),
    ("solve so  n=3 p=13 m=2 (odd)", 13, 2, lambda ctx, r: bench_solver(ctx, "so", "so_odd", 3, r)),
    ("solve gl  n=4 p=7 m=1", 7, 1, lambda ctx, r: bench_solver(ctx, "gl", None, 4, r)),
    ("solve so  n=4 p=7 m=1 (sp)", 7, 1, lambda ctx, r: bench_solver(ctx, "so", "sp", 4, r)),
    ("N^delta sweep n=2 d=12", 13, 1, bench_galois),
    ("make_context p=5 m=3", 5, 3, bench_context),
    ("solve gl  n=4 p=5 m=3", 5, 3, lambda ctx, r: bench_solver(ctx, "gl", None, 4, r)),
    ("solve so  n=4 p=5 m=3 (sp)", 5, 3, lambda ctx, r: bench_solver(ctx, "so", "sp", 4, r)),
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=16)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"precision N={args.prec}")
    print(f"{'workload':32s} {'best':>10s}")
    for name, p, m, fn in WORKLOADS:
        t = fn(make_context(p, m, args.prec), args.repeat)
        print(f"{name:32s} {t * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()

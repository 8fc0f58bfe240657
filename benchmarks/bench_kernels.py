#!/usr/bin/env python3
"""Time the kernel on a few representative workloads.

The workloads are the solver across equation types and an N^delta
membership sweep; each prints its best time over --repeat runs.  A large
--prec (128 or more) shows how the solver scales with precision.

    python3 benchmarks/bench_kernels.py [--prec 16] [--repeat 5]
"""

import argparse
import time

from deltalin.equations import EquationSpec, solve
from deltalin.galois import GuChecker, enumerate_N_delta
from deltalin.ring import make_context
from deltalin.sampling import Rng


def bench_solver(ctx, kind, variant, n, repeat):
    rng = Rng(1)
    if kind == "gl":
        alpha = rng.matrix(ctx, n)
    elif kind == "sl":
        alpha = rng.sl_delta_alpha(ctx, n)
    else:
        alpha = rng.so_delta_alpha(ctx, n, variant)
    spec = EquationSpec(kind, n, alpha, variant)
    u0 = rng.gl(ctx, n)
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        rep = solve(spec, u0)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert rep.residual_valuation == float("inf")
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


WORKLOADS = (  # (name, m, bench), each on p=13
    ("solve gl  n=4 p=13 m=2", 2, lambda ctx, r: bench_solver(ctx, "gl", None, 4, r)),
    ("solve sl  n=3 p=13 m=2", 2, lambda ctx, r: bench_solver(ctx, "sl", None, 3, r)),
    ("solve so  n=4 p=13 m=2 (sp)", 2, lambda ctx, r: bench_solver(ctx, "so", "sp", 4, r)),
    ("solve so  n=3 p=13 m=2 (odd)", 2, lambda ctx, r: bench_solver(ctx, "so", "so_odd", 3, r)),
    ("N^delta sweep n=2 d=12", 1, bench_galois),
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=16)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"precision N={args.prec}")
    print(f"{'workload':32s} {'best':>10s}")
    for name, m, fn in WORKLOADS:
        t = fn(make_context(13, m, args.prec), args.repeat)
        print(f"{name:32s} {t * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()

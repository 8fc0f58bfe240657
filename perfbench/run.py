#!/usr/bin/env python3
"""deltalin's benchmark: run one workload, check every op, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports deltalin from `src/`.  The
workloads are in workloads.py; README.md describes workloads and metrics.

--trace 0 sets the inputs up SETUP_REPEATS times, then sets them up once
more and runs a pass over the ops, again and again for as many whole passes
as fit in --seconds (at least one).  It prints the end-to-end metrics,
taken over each op's best time across the passes.

--trace 1 runs one untraced pass, installs the wrappers of tracing.py,
sets the inputs up again and runs one traced pass.  It prints the
per-layer metrics of the traced set-up and pass and the tracing overhead.
Both passes must give the same results.

A failed op makes the run exit 1.  The line before the last is a JSON
report (sample counts, percentiles, failed_frac, result digest,
environment); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import tracing
from measure import beyond, percentile, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
KERNEL_OPS = ("m_mul", "m_inv", "m_powp", "m_frob", "m_det", "m_divp", "s_mul", "s_inv", "s_pow")
MAX_SELF_SUM_ERROR_S = 1e-6


class OpFailed:
    """Result of an op that raised."""


def run_pass(cases, trace=None):
    """Run every case once; return per-op seconds and results."""
    times, results = [], []
    if trace is not None:
        op_span = trace.name_id(tracing.OP_SPAN)
    for k, case in enumerate(cases):
        if trace is not None:
            trace.op_id = k
            i = trace.enter(op_span)
        t0 = perf_counter()
        try:
            result = case.run(trace)
        except Exception:
            traceback.print_exc()
            result = OpFailed()
        t1 = perf_counter()
        if trace is not None:
            trace.exit(i)
            trace.op_id = -1
        times.append(t1 - t0)
        results.append(result)
    return times, results


def check_pass(cases, results, expected=None):
    """Canonical results and the number of ops that failed their check or,
    given `expected`, differ from it.  Without `expected` (a run's first
    pass) the cases' oracles run too."""
    canon, failed = [], 0
    for k, (case, result) in enumerate(zip(cases, results)):
        ok = not isinstance(result, OpFailed) and case.check(result)
        if ok and expected is None and case.oracle is not None:
            ok = case.oracle(result)
        value = [case.label, case.canon(result) if ok else None]
        if not ok or (expected is not None and value != expected[k]):
            failed += 1
            print(f"op failed: {case.label}", file=sys.stderr)
        canon.append(value)
    return canon, failed


def digest_of(canon):
    from deltalin.io import canonical_dumps

    return hashlib.sha256(canonical_dumps(canon)).hexdigest()


def check_ledger(out_dir, key, digest):
    """Record the digest for `key`, or compare it with the one recorded."""
    path = out_dir / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return seen == digest


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def latency_report(times):
    n = len(times)
    out = {"op_p50_ms": statistics.median(times) * 1e3, "ops": n}
    if beyond(n, 90.0) >= 10:
        out["op_p90_ms"] = percentile(times, 90.0) * 1e3
    level = tail_level(n)
    if level is not None:
        out["op_tail"] = {"percentile": level, "ms": percentile(times, level) * 1e3}
    return out


# -- runs -------------------------------------------------------------------------


def run_plain(wl, args, workdir):
    setup_times, passes, failed, first = [], [], 0, None

    def setup():
        t0 = perf_counter()
        inputs = wl(args.seed, args.smoke, workdir)
        setup_times.append(perf_counter() - t0)
        return inputs

    for _ in range(SETUP_REPEATS):
        setup()
    start = perf_counter()
    # Stop before a pass that would end past --seconds, so a run lasts its
    # length whatever the pass time.
    while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        # A fresh set-up before each pass spreads the set-up samples over the run.
        inputs = setup()
        pass_times, results = run_pass(inputs.cases)
        canon, bad = check_pass(inputs.cases, results, first)
        first = first or canon
        passes.append(pass_times)
        failed += bad
    # Other tenants of the machine slow whole stretches of a run; each op's
    # best time over the passes is what its own work costs.
    best = [min(times) for times in zip(*passes)]
    attempted = len(passes) * len(best)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "latency_best_of_passes": latency_report(best),
        "latency_all_ops": latency_report([t for times in passes for t in times]),
        "passes": len(passes),
        "setup_samples": len(setup_times),
        "failed_frac": failed / attempted,
    }
    return inputs, first, attempted, failed, metrics, report


def run_traced(wl, args, workdir, import_s):
    inputs = wl(args.seed, args.smoke, workdir)
    plain_times, results = run_pass(inputs.cases)
    plain, failed = check_pass(inputs.cases, results)

    trace = tracing.Trace()
    tracing.install(trace)
    with trace.span("bench.setup"):
        inputs = wl(args.seed, args.smoke, workdir)
    with trace.span("bench.pass"):
        traced_times, results = run_pass(inputs.cases, trace)
    with trace.span("bench.check"):
        canon, bad = check_pass(inputs.cases, results, plain)
    failed += bad

    rows = trace.rows()
    layers, extra = layer_metrics(rows, trace.iterations, import_s)
    layers["trace.overhead_frac"] = (sum(traced_times) / sum(plain_times) - 1.0, "frac")
    self_error = tracing.per_op_self_error(rows, tracing.self_times(rows))
    if self_error > MAX_SELF_SUM_ERROR_S:
        raise RuntimeError(f"per-op self times miss the op time by {self_error:.3g} s")
    del rows
    trace.save(Path(args.out) / f"trace-{args.workload}.json.gz", compress=True)
    report = {
        "latency_traced": latency_report(traced_times),
        "spans": len(trace),
        "trace.op_self_sum_error_s": self_error,
        "failed_frac": failed / (2 * len(inputs.cases)),
        "layer_times": extra,
    }
    return inputs, canon, 2 * len(inputs.cases), failed, layers, report


def layer_metrics(rows, iterations, import_s):
    """Per-layer metrics over the spans under the traced set-up and pass.

    Returns the metrics every workload reports and a dict of the timings of
    layers that only some workloads use (reported where they are non-zero).
    """
    self_s = tracing.self_times(rows)
    root = [0] * len(rows)
    for i, (_, _, _, parent, _) in enumerate(rows):
        root[i] = i if parent < 0 else root[parent]
    scope = [rows[root[i]][0] in ("bench.setup", "bench.pass") for i in range(len(rows))]
    total = sum(end - start for (name, start, end, parent, _), ok in zip(rows, scope)
                if ok and parent < 0)

    calls, name_self, layer_self, layer_calls = Counter(), defaultdict(float), defaultdict(float), Counter()
    for (name, *_), s, ok in zip(rows, self_s, scope):
        if ok:
            layer = tracing.layer_of(name)
            calls[name] += 1
            name_self[name] += s
            layer_self[layer] += s
            layer_calls[layer] += 1

    def top(pred):
        return tracing.top_level(rows, [ok and pred(name) for (name, *_), ok in zip(rows, scope)])

    def durations(name):
        return [end - start for (n, start, end, *_), ok in zip(rows, scope) if ok and n == name]

    under_sqrt = [False] * len(rows)
    newton_inverses = 0
    for i, (name, _, _, parent, _) in enumerate(rows):
        if parent >= 0:
            under_sqrt[i] = under_sqrt[parent] or rows[parent][0] == "twist.sqrt"
        if scope[i] and under_sqrt[i] and name == "kernel.m_inv":
            newton_inverses += 1

    def us_per_call(seconds, n):
        return seconds / n * 1e6 if n else 0.0

    m = {}
    for op in KERNEL_OPS:
        m[f"kernel.{op}.calls"] = (calls["kernel." + op], "count")
    m["kernel.self_s"] = (layer_self["kernel"], "s")
    m["kernel.share"] = (layer_self["kernel"] / total, "frac")
    for op in ("m_mul", "m_inv"):
        m[f"kernel.{op}.us_per_call"] = (us_per_call(name_self["kernel." + op], calls["kernel." + op]), "us")
    m["matrix.calls"] = (layer_calls["matrix"], "count")
    m["matrix.self_s"] = (layer_self["matrix"], "s")
    m["matrix.us_per_op"] = (us_per_call(layer_self["matrix"], layer_calls["matrix"]), "us")
    m["ring.calls"] = (layer_calls["ring"], "count")
    m["ring.self_s"] = (layer_self["ring"], "s")
    for name in ("lambda_sl", "Lambda_so", "sqrt"):
        m[f"twist.{name}.calls"] = (calls["twist." + name], "count")
    m["twist.newton_inverses"] = (newton_inverses, "count")
    m["twist.self_s"] = (layer_self["twist"], "s")
    m["twist.share"] = (top(lambda n: tracing.layer_of(n) == "twist")[1] / total, "frac")
    m["solve.calls"] = (calls["solve.solve"], "count")
    m["solve.iterations"] = (sum(n for i, n in iterations.items() if scope[i]), "count")
    m["solve.self_s"] = (layer_self["solve"], "s")
    m["solve.residual_s"] = (top(lambda n: n == "solve.residual")[1], "s")
    m["galois.checks"] = (calls["galois.check"], "count")
    m["ring.make_context_s"] = (top(lambda n: n == "ctx.make_context")[1], "s")
    m["ring.teichmueller.calls"] = (calls["ctx.teichmueller"], "count")
    m["sampling.s"] = (top(lambda n: tracing.layer_of(n) == "sampling")[1], "s")
    m["cli.import_s"] = (import_s, "s")
    m["cli.calls"] = (calls["cli.solve"] + calls["cli.verify"], "count")
    encodes, encode_s = top(lambda n: n == "io.encode")
    decodes, decode_s = top(lambda n: n == "io.decode")
    m["io.encode.calls"] = (encodes, "count")
    m["io.decode.calls"] = (decodes, "count")

    cli_solve, cli_verify = durations("cli.solve"), durations("cli.verify")
    extra = {
        "galois.check_s": top(lambda n: n == "galois.check")[1],
        "galois.enumerate_s": top(lambda n: n == "galois.enumerate")[1],
        "cli.solve_s": statistics.median(cli_solve) if cli_solve else 0.0,
        "cli.verify_s": statistics.median(cli_verify) if cli_verify else 0.0,
        "io.encode_s": encode_s,
        "io.decode_s": decode_s,
        "bench.self_s": layer_self["bench"],
        "traced_s": total,
    }
    return m, {k: v for k, v in extra.items() if v}


# -- environment ----------------------------------------------------------------------


def kernel_reasons(p, m, N):
    """Why a context with these parameters gets the kernel it gets."""
    from deltalin import _kernel

    reasons = []
    if os.environ.get("DELTA_LIN_PURE") == "1":
        reasons.append("DELTA_LIN_PURE set")
    if not _kernel.COMPILED_AVAILABLE:
        reasons.append("extension not built")
    if p ** N >= 2 ** 63:
        reasons.append("p^N >= 2^63")
    if _kernel.COMPILED_AVAILABLE and m > _kernel._speedups.MAX_M:
        reasons.append("m > MAX_M")
    return reasons


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(contexts):
    from deltalin import COMPILED_AVAILABLE

    return {
        "git": git_state(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiled_available": COMPILED_AVAILABLE,
        "kernels": [
            {"p": p, "m": m, "N": N, "kind": kind, "why": kernel_reasons(p, m, N)}
            for p, m, N, kind in sorted(set(contexts))
        ],
    }


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"), help="directory for the span dump and digest ledger")
    ap.add_argument("--smoke", action="store_true", help="minimal inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "deltalin" / "__init__.py").is_file():
        print(f"error: no deltalin sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import deltalin.cli  # noqa: F401  (imports every layer; timed as cli.import_s)
    import_s = perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if args.trace:
            inputs, canon, attempted, failed, metrics, report = run_traced(wl, args, workdir, import_s)
        else:
            inputs, canon, attempted, failed, metrics, report = run_plain(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = digest_of(canon)
    cases_id = hashlib.sha256("\n".join(c.label for c in inputs.cases).encode()).hexdigest()[:12]
    key = f"{args.workload}:{args.seed}:{cases_id}"  # a changed case list starts afresh
    digest_ok = check_ledger(out_dir, key, digest)
    if not digest_ok:
        print(f"result digest {digest} differs from the one recorded for {key}", file=sys.stderr)
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        ops_per_pass=len(inputs.cases),
        digest=digest,
        digest_matches_ledger=digest_ok,
        environment=fingerprint(inputs.contexts),
    )
    correct = failed == 0 and digest_ok
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for prtoolkit: one workload, in one process, one operation at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload decide_mix|polyexp|search --seed N --seconds S --trace 0|1

The run is a closed loop with one client.  It repeats whole rounds of
the workload's operations until S seconds have passed, checks every
output against `oracle`, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 every public
function of prtoolkit is wrapped (see `tracer`) and the metrics are the
per-layer ones.  Details of each run go to bench/out/.

Times are scaled to a nominal host by the reference loop of `hostspeed`,
which runs between operations: the drift of a shared host cancels out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_EVERY = 1.5  # seconds between set-up samples during an untraced run
SETUP_SAMPLES = 9  # at least this many per run
REFERENCE_EVERY = 0.25  # seconds of operations between passes of the reference loop


def setup_sample(modules):
    """Import time of the workload's modules in a fresh interpreter, with a reference pass."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *modules]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def run_rounds(ops, seconds, tracer=None, setup_modules=None):
    """Run whole rounds until `seconds` have passed.

    Between operations, and outside their timing, it runs the reference
    loop every REFERENCE_EVERY seconds and, given `setup_modules`, a
    set-up sample every SETUP_EVERY seconds, so that both spread over
    the run.  Returns the samples (op index, seconds, index of the
    reference pass before it, problem), the reference-pass times, the
    set-up samples and the round count.
    """
    from hostspeed import ReferenceLoop

    reference_seconds = ReferenceLoop().seconds
    setup = []
    if setup_modules:
        setup_sample(setup_modules)  # the first interpreter may still write bytecode caches
    refs = [reference_seconds()]
    samples = []
    rounds = 0
    start = last_ref = last_setup = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if setup_modules and time.perf_counter() - last_setup >= SETUP_EVERY:
                setup.append(setup_sample(setup_modules))
                last_setup = time.perf_counter()
            if time.perf_counter() - last_ref >= REFERENCE_EVERY:
                refs.append(reference_seconds())
                last_ref = time.perf_counter()
            span = tracer.begin("op." + op.kind) if tracer else None
            t0 = time.perf_counter()
            try:
                out, problem = op.run(), None
            except Exception as e:  # an escaping exception is a failed operation
                out, problem = None, ("error", "%s escaped: %s" % (type(e).__name__, str(e)[:120]))
            dt = time.perf_counter() - t0
            if tracer:
                tracer.finish(span)
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as e:  # output the check cannot read
                    problem = ("wrong", "unreadable output: %s: %s" % (type(e).__name__, e))
            samples.append((i, dt, len(refs) - 1, problem))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    refs.append(reference_seconds())
    while setup_modules and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(setup_modules))
    return samples, refs, setup, rounds


def scaled_times(samples, refs):
    """Each operation's time scaled by the median of the six reference passes around it.

    The median of passes on both sides follows the host's drift, and
    one pass slowed by a hiccup does not move it.
    """
    from hostspeed import NOMINAL_SECONDS

    return [dt * NOMINAL_SECONDS / statistics.median(refs[max(k - 2, 0):k + 4])
            for _, dt, k, _ in samples]


def latency_figures(times, ok_count):
    ms = [t * 1000 for t in times]
    return {
        "throughput_per_s": ok_count / sum(times),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide_mix", "polyexp", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prtoolkit" / "__init__.py").is_file():
        print("error: no prtoolkit sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from hostspeed import NOMINAL_SECONDS

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    setup_modules = None if args.trace else workloads.ENTRY_MODULES[args.workload]
    samples, refs, setup, rounds = run_rounds(ops, args.seconds, tracer, setup_modules)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()

    problems = Counter((i, p) for i, _, _, p in samples if p)
    failed = sum(problems.values())
    correct = not any(p[0] == "wrong" for _, p in problems)
    times = scaled_times(samples, refs)
    raw = [dt for _, dt, _, _ in samples]
    ok_count = len(samples) - failed

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": len(samples),
        "failed": failed,
        "correct": correct,
        "wall_s": wall,
        "failures": [
            {"kind": ops[i].kind, "label": ops[i].label[:120], "problem": list(p), "count": n}
            for (i, p), n in problems.items()
        ],
        "raw": latency_figures(raw, ok_count),
        "reference_s": {
            "median": statistics.median(refs), "min": min(refs), "max": max(refs), "passes": len(refs),
        },
        "op_seconds_raw": sum(raw),
        "op_samples": [[i, dt, k] for i, dt, k, _ in samples],
        "reference_passes": refs,
    }
    if args.trace:
        metrics = tracer.layer_metrics(rounds)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed))
        tracer.dump(trace_path, t0)
        detail["trace_file"] = str(trace_path.relative_to(BENCH.parent))
        detail["spans"] = len(tracer.start)
    else:
        setup_s = statistics.median(s["import_s"] * NOMINAL_SECONDS / s["ref_s"] for s in setup)
        metrics = {k: {"value": v, "unit": u} for (k, u), v in zip(
            (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms")),
            latency_figures(times, ok_count).values())}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mib"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"}
        detail["setup_raw"] = setup
        kinds = {}
        for (i, _, _, _), t in zip(samples, times):
            kinds.setdefault(ops[i].kind, []).append(t * 1000)
        detail["p50_ms_by_kind"] = {k: statistics.median(v) for k, v in sorted(kinds.items())}
    detail["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(detail, fh, indent=1)
    print("%s seed %d: %d rounds, %d operations, %d failed, reference loop median %.2f ms"
          % (args.workload, args.seed, rounds, len(samples), failed, detail["reference_s"]["median"] * 1000))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

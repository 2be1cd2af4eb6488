"""coneflat benchmark: one workload per run, from one process on one thread.

    python3 perfbench/run.py --workload {identities,certify,xi} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 the workload runs whole
turns of its case mix for about S seconds of case time and prints
every end-to-end metric; with --trace 1 it runs a fixed list of cases
twice, untraced then traced, and prints the per-layer metrics with the
tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero on any wrong
answer, and when the package source or the default term bound is
missing.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# set-up is repeated and its median reported, so that one slow set-up
# does not move setup_s
SETUP_REPEATS = 3
# the tail percentile is the highest one with this many cases beyond it
TAIL_BEYOND = 10

END_TO_END = [("setup_s", "s"), ("cases_per_s", "1/s"), ("case_s_p50", "s"),
              ("case_s_tail", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("identities", "certify", "xi"))
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import the package from the checkout's source tree; refuse to run
    under a non-default term bound, which could hide TermBudgetError."""
    if not os.path.isfile(os.path.join(SRC, "coneflat", "__init__.py")):
        raise BenchError(f"no package source under {SRC}")
    if "CCC_MAX_TERMS" in os.environ:
        raise BenchError("CCC_MAX_TERMS is set; the benchmark runs only "
                         "under the default term bound")
    sys.path.insert(0, SRC)
    from coneflat.funcfield import DEFAULT_TERM_BOUND, term_bound
    if term_bound() != DEFAULT_TERM_BOUND:
        raise BenchError(f"term bound {term_bound()} is not the default "
                         f"{DEFAULT_TERM_BOUND}")
    import workloads
    return workloads, term_bound()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND cases above it, or the fastest case when there are
    fewer."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), \
        len(ordered) - rank - 1


def run_cases(wl, indices, seconds=math.inf, tracer=None, cycle=1):
    """Run the cases `indices` in order, stopping early at the end of a
    whole turn of `cycle` cases once about `seconds` of case time have
    passed (the last turn is not begun when less than half of one turn's
    mean time is left); returns [(outcome, wall seconds)]."""
    records = []
    busy = 0.0
    for index in indices:
        turns = len(records) // cycle
        if turns and len(records) % cycle == 0 \
                and busy + busy / turns / 2 >= seconds:
            break
        case = wl.make_case(index)
        t0 = time.perf_counter()
        if tracer is None:
            outcome = wl.run_case(case)
        else:
            with tracer.case_span():
                outcome = wl.run_case(case)
        dt = time.perf_counter() - t0
        busy += dt
        records.append((outcome, dt))
    return records


def build(workloads, name, seed, workdir):
    """Run set-up SETUP_REPEATS times; return the last workload and the
    median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        wl = workloads.WORKLOADS[name](seed, workdir)
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def end_to_end(wl, seconds, setup_s):
    """Timed phase with tracing off: (records, metrics, notes)."""
    records = run_cases(wl, itertools.count(), seconds=seconds,
                        cycle=wl.cycle)
    times = [dt for _, dt in records]
    attempted = len(records)
    ok = sum(1 for o, _ in records if o.status == "ok")
    failed = sum(1 for o, _ in records if o.status == "failed")
    value, pct, beyond = tail(times)
    turns = attempted // wl.cycle
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": ok / sum(times),
        "case_s_p50": statistics.median(times),
        "case_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    kinds = {}
    for o, _ in records:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
    mix = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
    notes = [f"cases {attempted} ({mix}), ok {ok}, failed {failed}",
             f"{turns} turns of {wl.cycle} cases, mean turn "
             f"{sum(times) / turns:.4g} s",
             f"case_s_tail is p{pct:.1f} of {attempted} cases, "
             f"{beyond} beyond it",
             f"failure_ratio {failed / attempted:.6g} ratio"]
    return records, metrics, notes


def traced(wl):
    """The workload's fixed trace list untraced on `wl`, then traced on a
    freshly set-up copy: (traced records, untraced records, metrics,
    notes).  The untraced list runs twice and the second pass is the
    reference, so that interpreter warm-up does not count as negative
    tracing overhead."""
    import tracing
    indices = range(wl.trace_cases)
    warm = run_cases(wl, indices)
    plain = run_cases(wl, indices)
    fresh = type(wl)(wl.seed, wl.workdir)
    fresh.setup()
    with tracing.Tracer(extra_modules=[sys.modules["workloads"]]) as tracer:
        records = run_cases(fresh, indices, tracer=tracer)
    metrics = tracer.layer_metrics()
    plain_s = sum(dt for _, dt in plain)
    traced_s = sum(dt for _, dt in records)
    metrics["trace.overhead_s"] = traced_s - plain_s
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    notes = [f"traced {len(records)} cases: untraced {plain_s:.3f} s, "
             f"traced {traced_s:.3f} s, {tracer.span_count} spans"]
    return records, warm + plain, metrics, units, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    try:
        workloads, bound = import_package()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    import_s = time.perf_counter() - t_start

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl, setup_median = build(workloads, args.workload, args.seed, workdir)
        print(f"# coneflat benchmark: workload {args.workload}, seed "
              f"{args.seed}, seconds {args.seconds:g}, trace {args.trace}; "
              f"python {platform.python_version()}, nproc {os.cpu_count()}, "
              f"term bound {bound}")
        print(f"# mix: {wl.mix}")
        if args.trace:
            records, plain, metrics, units, notes = traced(wl)
        else:
            records, metrics, notes = end_to_end(
                wl, args.seconds, import_s + setup_median)
            plain = []
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)          # left in place while another run uses it

    wrong = [o for o, _ in plain + records if o.status == "wrong"]
    for line in notes:
        print(f"# {line}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for o in wrong:
        sys.stderr.write(f"perfbench: wrong answer ({o.kind}): {o.reason}\n")
    result = {"correct": not wrong, "attempted": len(records),
              "failed": sum(1 for o, _ in records if o.status == "failed"),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())

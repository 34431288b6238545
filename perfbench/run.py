"""Run one benchmark workload once.

    python3 perfbench/run.py --workload {gen,train,infer} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is imported
from the checkout's ``src``. With ``--trace 0`` the run builds its inputs,
runs the workload's timed phases for ``--seconds`` with further builds of its
inputs interleaved (the 90th percentile of the build times is ``setup_s``),
checks the outputs and prints the end-to-end metrics listed in
``BENCHMARK.json``. With ``--trace 1`` it builds its inputs once under the
tracer, runs a fixed count of operations untraced and then the same count
traced, and prints the per-layer metrics, including the tracing overhead.

Standard output ends with a ``details:`` line, which carries every metric the
run measured with its unit and sample count, and then the result object. The
exit code is 0 only when every operation and every output check passed.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 4
#: Per-layer metrics that are not span quantities, as (value, sample count)
#: for workloads that do not measure them.
EXTRA_DEFAULTS = {"cli.predict.p99_ms": (0.0, 0), "cli.predict.calls": (0, 0),
                  "diagnostics.warned_frac": (0.0, 0)}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_phases(workload, phases, seconds=None, tracer=None, spent=None):
    """Time the phases' operations; return their durations per phase, untraced
    and traced.

    Operations of different phases are interleaved, the next one always from
    the phase furthest below its share of the time spent, so that every phase
    samples the whole run. A phase ends once ``seconds`` have passed and it
    has run at least ``min_reps`` operations in whole cycles. With a
    ``tracer``, a phase runs ``trace_reps`` operations instead, each twice in
    a row, untraced and then traced, so that both meet the same machine state.
    ``spent`` gives time already spent per phase before the call.
    """
    from looptopo import LoopTopoError

    times = {p.name: [] for p in phases}
    traced = {p.name: [] for p in phases}
    spent = {p.name: (spent or {}).get(p.name, 0.0) for p in phases}
    count = {p.name: 0 for p in phases}
    start = time.perf_counter()

    def done(p):
        i = count[p.name]
        if tracer is not None:
            return i >= p.trace_reps
        return (i >= p.min_reps and i % p.cycle == 0
                and time.perf_counter() - start >= seconds)

    def run_op(phase, i, into):
        t0 = time.perf_counter()
        try:
            result = phase.op(i)
        except LoopTopoError as exc:
            print(f"{phase.name} operation {i} failed: {exc}", file=sys.stderr)
            workload.failed_ops += 1
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        into[phase.name].append(elapsed)
        if phase.after is not None:
            phase.after(i, result)
        return elapsed

    while True:
        pending = [p for p in phases if not done(p)]
        if not pending:
            return times, traced
        phase = min(pending, key=lambda p: spent[p.name] / p.share)
        i = count[phase.name]
        spent[phase.name] += run_op(phase, i, times)
        if tracer is not None:
            with tracer:
                run_op(phase, i, traced)
        count[phase.name] += 1


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, bench, seconds):
    from workloads import Phase

    first = _timed(workload.setup)
    # The other set-ups are interleaved with the timed operations, after each
    # (SETUP_REPEATS - 1)-th of their time, so that set-ups and operations
    # meet the same speed states of the machine. The timed phases' shares sum
    # to 1, so the set-ups add about their own time to the run.
    share = (SETUP_REPEATS - 1) * first / seconds
    setups = Phase("setup", lambda i: workload.setup(), share, trace_reps=0,
                   min_reps=SETUP_REPEATS - 1)
    times, _ = run_phases(workload, workload.phases() + [setups],
                          seconds=seconds * (1 + share), spent={"setup": first})
    setup = [first] + times.pop("setup")
    checks = workload.check()
    # the upper percentile, like the timed phases: it sits in the machine's
    # slow speed state, which a handful of set-ups nearly always meets
    named = {"setup_s": (float(np.percentile(setup, 90)), "s", len(setup)),
             **workload.metrics(times),
             "peak_rss_mb": (_peak_rss_mb(), "MB", 1)}
    reported = {m["name"]: named[workload.aliases.get(m["name"], m["name"])][0]
                for m in bench["end_to_end"]}
    return times, checks, named, reported, []


def run_traced(workload, bench, tracer_cls):
    extras = set(EXTRA_DEFAULTS) | {"trace.overhead_frac", "trace.missing_spans"}
    spans = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
             if m["name"] not in extras}
    tracer = tracer_cls(sorted(spans | set(workload.expected_spans)))
    with tracer:
        workload.setup()
    untraced, traced = run_phases(workload, workload.phases(), tracer=tracer)
    checks = workload.check()

    n_ops = sum(len(t) for t in traced.values())
    overhead = (sum(map(sum, traced.values())) / sum(map(sum, untraced.values()))) - 1.0
    missing = sorted(set(tracer.not_found)
                     | {s for s in workload.expected_spans if tracer.stats[s].calls == 0})
    values = {**EXTRA_DEFAULTS, **workload.extras(untraced),
              "trace.overhead_frac": (overhead, n_ops),
              "trace.missing_spans": (len(missing), len(workload.expected_spans))}
    named = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name not in values:
            span, quantity = name.rsplit(".", 1)
            values[name] = (tracer.value(span, quantity), tracer.stats[span].calls)
        named[name] = (values[name][0], m["unit"], values[name][1])
    reported = {name: v for name, (v, _, _) in named.items()}
    times = {**untraced, **{f"{k} traced": v for k, v in traced.items()}}
    return times, checks, named, reported, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["gen", "train", "infer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "looptopo" / "__init__.py").is_file():
        print(f"error: no looptopo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    bench = load_benchmark()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        workload = WORKLOADS[args.workload](SIZES["tiny" if args.tiny else "full"],
                                            args.seed, workdir)
        if args.trace:
            times, checks, named, reported, missing = run_traced(workload, bench, Tracer)
        else:
            times, checks, named, reported, missing = run_untraced(workload, bench,
                                                                   args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    failed_checks = [name for name, ok in checks if not ok]
    attempted = sum(len(t) for t in times.values()) + workload.failed_ops + len(checks)
    failed = workload.failed_ops + len(failed_checks)
    named["failed_frac"] = (failed / attempted, "fraction", attempted)
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    for name, (value, unit, count) in named.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<9} n={count}")
    for name in failed_checks:
        print(f"  check failed: {name}")
    if missing:
        print(f"  missing spans: {', '.join(missing)}")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "tiny": args.tiny, "correct": correct,
               "attempted": attempted, "failed": failed,
               "checks": {name: bool(ok) for name, ok in checks}, "missing": missing,
               "aliases": workload.aliases,
               "metrics": {name: {"value": v, "unit": u, "count": n}
                           for name, (v, u, n) in named.items()}}
    print("details: " + json.dumps(details))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": reported[name], "unit": units[name]}
                                  for name in units}}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

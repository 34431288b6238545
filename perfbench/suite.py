"""Run every workload several times and write one results file.

    python3 perfbench/suite.py --runs 10 --out perfbench/results/mine.json

Each run is a separate ``run.py`` process (so that peak memory is per run),
with seeds 1, 2, ... ``--runs``. The suite then makes
``--trace-runs`` traced runs per workload. It prints, per workload and metric,
the median, the quartiles of ``statistics.quantiles(values, n=4)``, the
spread (quartile distance over median) and, for gated end-to-end metrics,
the spread as a share of the metric's bound. The results file also records
the machine, Python, numpy, OpenBLAS, the BLAS thread count, the git commit
and the ``src/`` line count. Compare two results files with ``compare.py``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import load_benchmark

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gen", "train", "infer")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q1, med, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment():
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "src_py_lines": src_lines}


def run_once(workload, seed, seconds, trace, tiny):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    details = None
    for line in proc.stdout.splitlines():
        if line.startswith("details: "):
            details = json.loads(line[len("details: "):])
    if proc.returncode != 0 or details is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, details


def summarize(runs):
    """metric -> summary over the runs that measured it."""
    out = {}
    for name in list(runs[0]["metrics"]) if runs else []:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, med, q3 = quartiles(values)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                     "median": med, "q1": q1, "q3": q3,
                     "samples": statistics.median(r["metrics"][name]["count"] for r in runs)}
    return out


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", help="results file to write")
    args = parser.parse_args(argv)

    gated = {m["name"]: m for m in bench["end_to_end"]}
    results = {"env": environment(), "seconds": args.seconds, "tiny": args.tiny,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for k in range(args.runs + args.trace_runs):
            trace = int(k >= args.runs)
            rc, details = run_once(workload, 1 + k % max(args.runs, 1),
                                   args.seconds, trace, args.tiny)
            ok = ok and rc == 0 and details is not None and details["correct"]
            if details is not None:
                (traced if trace else runs).append(details)
        own = {}
        if runs:
            aliases = runs[0].get("aliases", {})
            own = {aliases.get(g, g): g for g in gated}
        entry = {"runs": runs, "trace_runs": traced,
                 "summary": summarize(runs), "trace_summary": summarize(traced),
                 "gated": {name: {"as": g, "bound": gated[g]["bound"],
                                  "better": gated[g]["better"]}
                           for name, g in own.items()}}
        results["workloads"][workload] = entry

        print(f"== {workload}: {len(runs)} runs, {len(traced)} traced")
        for name, s in {**entry["summary"], **entry["trace_summary"]}.items():
            sp = spread(s["q1"], s["median"], s["q3"])
            line = (f"  {name:<48} {s['median']:>14.6g} {s['unit']:<9} "
                    f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {sp:6.1%} n={s['samples']:g}")
            if name in entry["gated"]:
                g = entry["gated"][name]
                line += f"  gated as {g['as']}, bound {g['bound']:.0%}, spread/bound {sp / g['bound']:.2f}"
            print(line)
        for r in runs + traced:
            if r["missing"]:
                print(f"  seed {r['seed']} trace {r['trace']}: missing spans {r['missing']}")

    print("environment: " + json.dumps(results["env"]))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

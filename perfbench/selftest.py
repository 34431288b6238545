"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with tiny inputs, checks the output
contract against BENCHMARK.json (result keys, metric names, no missing spans),
checks that run.py refuses to run without the package sources, and runs
suite.py and compare.py end to end. Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def expect(ok, message, proc=None):
    if not ok:
        if proc is not None:
            sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"selftest FAILED: {message}")


def check_run(bench, workload, trace):
    proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace), "--tiny"])
    what = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{what} exited {proc.returncode}", proc)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2].split("details: ", 1)[1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what} result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what} not correct: {details['checks']}")
    spec = bench["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in spec], f"{what} metric names")
    for m in spec:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{what} metric {m['name']}")
        if not trace:
            expect(got["value"] > 0, f"{what} end-to-end metric {m['name']} is not positive")
    expect(details["missing"] == [], f"{what} missing spans {details['missing']}")
    print(f"ok  {what}")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in ("gen", "train", "infer"):
        for trace in (0, 1):
            check_run(bench, workload, trace)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run([f"{HERE.name}/run.py", "--workload", "gen", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "run.py did not refuse a directory without sources", proc)
        print("ok  refuses to run without sources")

        results = tmp / "results.json"
        proc = run([str(HERE / "suite.py"), "--tiny", "--workloads", "gen", "--runs", "2",
                    "--trace-runs", "1", "--seconds", "0.3", "--out", str(results)])
        expect(proc.returncode == 0 and results.is_file(), "suite.py failed", proc)
        env = json.loads(results.read_text())["env"]
        expect({"cpu_model", "nproc", "python", "numpy", "blas", "blas_threads",
                "git_commit", "src_py_lines"} <= set(env), f"environment record {env}")
        proc = run([str(HERE / "compare.py"), str(results), str(results)])
        expect(proc.returncode == 0 and "within bound" in proc.stdout, "compare.py failed", proc)
        print("ok  suite.py and compare.py")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

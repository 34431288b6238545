"""Compare two results files of ``suite.py``, per workload and per metric.

    python3 perfbench/compare.py BASE.json NEW.json

For every metric both files hold, prints each side's median and quartiles and
the change of the median. For the gated end-to-end metrics it then says
whether NEW is worse or better than BASE by more than the metric's bound in
BENCHMARK.json, "within bound", or "unresolved" when either side's spread
(quartile distance over median) is wider than the bound, unless every run of
one side beats every run of the other. It gates nothing: the exit code is 0.
"""

import argparse
import json
import sys

from suite import spread


def verdict(base, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new["median"] - base["median"]) / abs(base["median"])
    if max(spread(base["q1"], base["median"], base["q3"]),
           spread(new["q1"], new["median"], new["q3"])) > bound:
        if min(sign * v for v in new["values"]) > max(sign * v for v in base["values"]):
            return "better in every run"
        if max(sign * v for v in new["values"]) < min(sign * v for v in base["values"]):
            return "worse in every run"
        return "unresolved"
    if change < -bound:
        return "WORSE beyond bound"
    if change > bound:
        return "better beyond bound"
    return "within bound"


def compare(base, new, out=sys.stdout):
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"== {workload}: only in the base file", file=out)
            continue
        print(f"== {workload}", file=out)
        for key in ("summary", "trace_summary"):
            for name, bs in b[key].items():
                ns = n[key].get(name)
                if ns is None:
                    print(f"  {name:<48} missing in the new file", file=out)
                    continue
                change = (f"{(ns['median'] - bs['median']) / abs(bs['median']):+7.1%}"
                          if bs["median"] else "    n/a")
                line = (f"  {name:<48} {bs['median']:>12.6g} [{bs['q1']:.4g}, {bs['q3']:.4g}]"
                        f" -> {ns['median']:>12.6g} [{ns['q1']:.4g}, {ns['q3']:.4g}]"
                        f" {ns['unit']:<9} {change}")
                gate = b.get("gated", {}).get(name)
                if gate is not None:
                    line += (f"  bound {gate['bound']:.0%}: "
                             + verdict(bs, ns, gate["better"], gate["bound"]))
                print(line, file=out)
    print(f"base: {json.dumps(base['env'])}", file=out)
    print(f"new:  {json.dumps(new['env'])}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    compare(base, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())

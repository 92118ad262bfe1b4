"""Run one workload over several seeds, one fresh process each, and print
the median, quartiles and spread (interquartile range over median) of every
end-to-end metric and workload figure.

    python3 perfbench/spread.py --workload frozen-consumers --seeds 1-10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=RUN.parent.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        figures = next(json.loads(l[len("figures "):]) for l in lines if l.startswith("figures "))
        for line in lines:  # with --trace 1: the end-to-end numbers measured under tracing
            if line.startswith("traced_end_to_end "):
                traced = json.loads(line[len("traced_end_to_end "):])
                figures |= {f"traced.{k}": {"value": v, "unit": "-"} for k, v in traced.items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", flush=True)
        for name, metric in {**figures, **result["metrics"]}.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':44s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:44s} {units[name]:10s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

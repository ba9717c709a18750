"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload zscan --seeds 1-10 [--trace 1]
                                [--out summary.json]

Runs perfbench/run.py once per seed, one run at a time, with the run length
from BENCHMARK.json.  For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={m['value']}" for k, m in result["metrics"].items()
                  if k in bounds), flush=True)

    summary = {"workload": args.workload, "trace": args.trace,
               "seeds": args.seeds,
               "correct": all(r["correct"] for r in runs),
               "metrics": {}}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            summary["metrics"][name] = {"unit": m["unit"], "values": values}
            continue
        s = summarize(values)
        s["unit"] = m["unit"]
        summary["metrics"][name] = s
        bound = bounds.get(name)
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:26s} median {s['median']:.6g} {m['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}"
              + (f" (bound {bound}, bound/3 {bound / 3:.4f})"
                 if bound else ""))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""helike benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload zscan --seed 1 --seconds 35 --trace 0

Run from any directory; the program is imported from the `src/` directory
next to `perfbench/`.  The run repeats whole passes of the workload while
the next one is expected to end within `--seconds` (at least one pass),
reports their median, and checks every op of every pass against the
stored seed reference.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it adds one traced pass and reports the
per-layer metrics.  The last line of standard output is the result as
one JSON object; a fuller record (machine, versions, every pass) goes to
`perfbench/results/`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / "work"

TOLERANCE = 1e-10      # relative on the energy, absolute on S_L and S_vN
SETUP_SAMPLES = 5      # fresh interpreters timed per run for setup_s
MIB = float(1 << 20)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["zscan", "he_l5n40", "converge_l4n30"])
    p.add_argument("--seed", type=int, default=0,
                   help="recorded; the workloads' inputs are the paper's "
                        "fixed grids, so every seed runs the same inputs")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's values as the workload's "
                        "reference instead of checking against it")
    return p.parse_args(argv)


def import_helike():
    """Import helike from this checkout's src/ and nowhere else."""
    if not (SRC / "helike" / "__init__.py").is_file():
        sys.exit(f"error: no helike package under {SRC}")
    sys.path.insert(0, str(SRC))
    import helike
    if Path(helike.__file__).resolve().parent != SRC / "helike":
        sys.exit(f"error: imported helike from {helike.__file__}, "
                 f"not from {SRC}")
    return helike


def measure_setup(samples: int) -> list[float]:
    """Wall seconds for fresh interpreters to finish `import helike`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import helike"]
    # the first import writes the bytecode cache, as an installed copy has it
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    mem_kib = _first_line("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": (_first_line("/proc/cpuinfo", "model name")
                      or platform.processor() or None),
        "ram_gib": (int(mem_kib.split()[0]) / (1 << 20) if mem_kib else None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def deviates(got, ref) -> bool:
    """True unless all three values are within TOLERANCE (NaN deviates)."""
    (e, sl, svn), (re_, rsl, rsvn) = got, ref
    return not (abs(e - re_) <= TOLERANCE * abs(re_)
                and abs(sl - rsl) <= TOLERANCE
                and abs(svn - rsvn) <= TOLERANCE)


def failed_ops(reference: dict, values: dict, read_back: dict) -> set[str]:
    """Ops missing from memory or files, or off the reference."""
    return {op for op, ref in reference.items()
            if op not in values or op not in read_back
            or deviates(values[op], ref) or deviates(read_back[op], ref)}


def write_reference(path: Path, values: dict) -> None:
    """{"ops": {op: [energy, S_L, S_vN]}}, one op per line."""
    lines = [f"  {json.dumps(op)}: {json.dumps(list(v))}"
             for op, v in sorted(values.items())]
    path.write_text('{"ops": {\n' + ",\n".join(lines) + "\n}}\n")


def one_pass(workload, mark) -> tuple[float, dict, dict]:
    """Run one pass in a fresh output directory: (wall_s, values, read)."""
    run, read, _ = workload
    out = WORK_DIR / str(os.getpid())
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        try:
            values = run(out, mark)
        except Exception:   # every op of the pass then counts as failed
            traceback.print_exc()
            values = {}
        wall = time.perf_counter() - t0
        try:
            read_back = read(out)
        except (OSError, ValueError, KeyError):   # files missing or garbled
            traceback.print_exc()
            read_back = {}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, values, read_back


def main(argv=None) -> int:
    args = parse_args(argv)
    import_helike()
    setup = measure_setup(SETUP_SAMPLES) if args.trace == 0 else []
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ref_path = REFERENCE_DIR / f"{args.workload}.json"
    if args.record_reference:
        _, values, _ = one_pass(workload, lambda op: None)
        REFERENCE_DIR.mkdir(exist_ok=True)
        write_reference(ref_path, values)
        print(f"wrote {len(values)} ops to {ref_path}", file=sys.stderr)
        return 0
    stored = json.loads(ref_path.read_text())["ops"]
    missing = [op for op in workload[2] if op not in stored]
    if missing:
        sys.exit(f"error: {ref_path} has no reference for {missing}")
    reference = {op: tuple(stored[op]) for op in workload[2]}

    walls, failed = [], set()
    first_values = None
    deadline = time.perf_counter() + args.seconds
    # start a pass only if a pass of the median length still fits
    while (not walls or time.perf_counter() + statistics.median(walls)
           <= deadline):
        wall, values, read_back = one_pass(workload, lambda op: None)
        walls.append(wall)
        failed |= failed_ops(reference, values, read_back)
        if first_values is None:
            first_values = values

    problems = []
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "pass_wall_s": walls,
              "setup_samples_s": setup}
    if args.trace == 0:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                * 1024 / MIB, "unit": "MiB"},
        }
    else:
        rec = spans.Recorder()
        rec.install()
        try:
            traced_wall, values, read_back = one_pass(workload, rec.mark)
        finally:
            unrestored = rec.restore()
        failed |= failed_ops(reference, values, read_back)
        if values != first_values:
            problems.append("traced and untraced passes differ")
        if unrestored:
            problems.append(f"wrappers left in place: {unrestored}")
        problems += rec.nesting_errors()
        metrics = spans.layer_metrics(rec, traced_wall,
                                      statistics.median(walls))
        total = sum(m["value"] for m in metrics.values()
                    if m["unit"] == "s" and m["value"] is not None)
        if not math.isclose(total, traced_wall, rel_tol=1e-9):
            problems.append(f"layer self times sum to {total} s, "
                            f"traced wall is {traced_wall} s")
        if metrics["pipeline.self_s"]["value"] < 0:
            problems.append("spans cover more than the traced pass")
        record["traced_wall_s"] = traced_wall
        RESULTS_DIR.mkdir(exist_ok=True)
        spans_path = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(rec.to_json(rec.spans[0].start
                                                     if rec.spans else 0.0)))
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    for op in sorted(failed):
        print(f"failed op: {op}", file=sys.stderr)
    result = {"correct": not failed and not problems,
              "attempted": len(reference), "failed": len(failed),
              "metrics": metrics}
    record.update(result, failed_ops=sorted(failed), problems=problems)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}")
    for name, m in metrics.items():
        shown = "absent: " + m["absent"] if m["value"] is None else m["value"]
        print(f"  {name:26s} {shown} {m['unit']}")
    print(f"  {'failed_ops':26s} {len(failed)} of {len(reference)} ops")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for segnce.

    python3 perfbench/run.py --workload train-objectives --seed 1 --seconds 20 --trace 0

Runs one workload in this process (each workload gets a fresh process, so
``peak_rss_mb`` is its own), checks the outputs and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the library's public functions, reports the per-layer
metrics computed from the recorded spans and writes the spans under
``.perfbench/spans/<workload>.npz``. Lines before the last one carry the environment, the
workload's own figures and loss-history digests. ``--smoke`` runs the same
code at toy sizes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": {"caller": sorted(os.sched_getaffinity(0)),
                         "other_threads": sorted({c for tid in os.listdir("/proc/self/task")
                                                  if int(tid) != threading.get_native_id()
                                                  for c in os.sched_getaffinity(int(tid))})},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def pin_threads() -> None:
    """Put the calling thread on the last CPU and every other thread (the
    BLAS workers) on the remaining ones. Left to the scheduler, the caller
    can migrate or share a CPU with a BLAS worker; unpinned, the same run's
    figures moved by 10-35% from one process to the next."""
    cpus = sorted(os.sched_getaffinity(0))
    caller, workers = {cpus[-1]}, set(cpus[:-1]) or {cpus[-1]}
    main = threading.get_native_id()
    for tid in map(int, os.listdir("/proc/self/task")):
        try:
            os.sched_setaffinity(tid, caller if tid == main else workers)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def run_workload(workload, seconds: float, tracer) -> dict:
    """Set up ``setup_repeats`` times, then run the stages round-robin until
    ``seconds`` have passed (and at least ``MIN_ROUNDS`` rounds)."""
    setup_s = []
    for _ in range(workload.setup_repeats):
        sid = tracer.open("bench.setup") if tracer else None
        t = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t)
        if tracer:
            tracer.close(sid)

    stages = workload.stages()
    blocks = {name: [] for name, _, _ in stages}
    attempted = failed = op = 0
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for name, ops, block in stages:
            if tracer:
                tracer.current_op = op
                sid = tracer.open(f"bench.{name}")
            t = time.perf_counter()
            try:
                done, bad = block()
            except Exception:  # a raised exception fails every operation of the block
                traceback.print_exc(file=sys.stderr)
                done, bad = ops, ops
            blocks[name].append(time.perf_counter() - t)
            if tracer:
                tracer.close(sid)
            attempted += done
            failed += bad
            op += 1
        rounds += 1
    return {
        "setup_s": statistics.median(setup_s),
        "median_s": {name: statistics.median(times) for name, times in blocks.items()},
        "blocks": {name: len(times) for name, times in blocks.items()},
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segnce" / "__init__.py").is_file():
        print(f"error: no segnce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # loads numpy and scipy, whose BLAS libraries start their worker threads
    pin_threads()
    from layertrace import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}:seed{args.seed}:pid{os.getpid()}")
        tracer.install()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
    try:
        result = run_workload(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    median_s = result["median_s"]
    end_to_end = {
        "setup_s": (result["setup_s"], "s"),
        "round_s": (sum(median_s.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tail_loss": (workload.tail_loss(), "nats"),
    }
    figures = {**workload.figures(median_s), "setup_s": end_to_end["setup_s"],
               "peak_rss_mb": end_to_end["peak_rss_mb"],
               "failed_ratio": (result["failed"] / max(1, result["attempted"]), "ratio")}
    print("figures " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
                                  sort_keys=True))
    print("loss_sha256 " + json.dumps(workload.loss_hashes(), sort_keys=True))
    print("blocks " + json.dumps({"per_stage": result["blocks"], "median_s": median_s,
                                  "rounds": result["rounds"], "measured_s": result["measured_s"]},
                                 sort_keys=True))

    if tracer:
        # end-to-end numbers under tracing; minus an untraced run's, they are the overhead
        print("traced_end_to_end " + json.dumps({k: v for k, (v, _) in end_to_end.items()},
                                                sort_keys=True))
        mismatches = getattr(workload, "mismatches", 0)
        metrics = layer_metrics(tracer, mismatches)
        if tracer.unmeasured:
            print("unmeasured " + json.dumps(tracer.unmeasured, sort_keys=True))
        tracer.write(OUT / "spans" / f"{args.workload}.npz",
                     {"environment": env, "workload": args.workload})
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    correct = result["failed"] == 0 and all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

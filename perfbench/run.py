"""modsetlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Workloads: critical_kmax, dense_half, exact_oracle (see workloads.py).

--trace 0 runs batches back to back, each in a fresh interpreter, until the
next one would end after --seconds, and reports medians over batches of the
end-to-end metrics:
  setup_s      interpreter start to the start of the timed section (s)
  batch_s      one timed batch: a whole `modsetlab sweep` call, or the whole
               exact batch (s); trials_per_s = trials / batch_s on the sweeps
  peak_rss_mb  larger of the batch process's and its workers' peak RSS (MB)
--trace 1 runs one traced batch in a single process, the same batch untraced
in a single process (the plain baseline, and the base of the tracing
overhead), and, on the sweeps, one batch at the workload's worker count for
the worker idle fraction.  It reports the per-layer metrics.

Every batch's outputs are checked; failed operations count in "failed".  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Spans, the self-time table and provenance go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("critical_kmax", "dense_half", "exact_oracle")
DEFAULT_SEED = 1  # the seed whose output digests are recorded in digests.json
MIN_BATCHES = 3
BATCH_TIMEOUT_S = 170


def spawn(job: dict) -> dict:
    """Run one batch in a fresh interpreter and return its JSON result.

    The batch runs in its own session so that a timeout can stop its worker
    processes too.  A batch that crashes or times out returns no timings and
    fails every operation it attempted.
    """
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "batch.py"), json.dumps(job)],
                            cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nbatch timed out after {BATCH_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    return {"attempted": job["operations"], "failed": job["operations"],
            "failures": [f"batch exited {proc.returncode}: {err.strip()[-2000:]}"]}


def check_digests(batches: list[dict], expected: str | None) -> list[str]:
    """Every batch must give the same outputs, and the recorded ones if known.

    A batch whose outputs differ fails all of its operations.
    """
    problems = []
    done = [b for b in batches if b.get("digest")]
    first = expected or (done[0]["digest"] if done else None)
    for b in done:
        if b["digest"] != first:
            problems.append(f"output digest {b['digest'][:16]} differs from "
                            f"{'the recorded' if expected else 'the first batch'} "
                            f"{first[:16]}")
            b["failed"] = b["attempted"]
    return problems


def provenance(args, workers: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
                                capture_output=True, text=True, env=env).stdout.strip()
        commit = commit or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "workers": workers, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _median(batches: list[dict], key: str) -> float:
    return statistics.median(b[key] for b in batches)


def timed_run(job: dict, seconds: float) -> tuple[dict, list[dict]]:
    start = time.monotonic()
    batches: list[dict] = []
    while True:
        batches.append(spawn(job))  # each batch checks, then overwrites, the same files
        elapsed = time.monotonic() - start
        if len(batches) >= MIN_BATCHES and elapsed * (len(batches) + 1) / len(batches) > seconds:
            break
    timed = [b for b in batches if "wall_s" in b]
    if not timed:
        raise RuntimeError("no batch finished: " + "; ".join(batches[0]["failures"]))
    metrics = {"setup_s": (_median(timed, "setup_s"), "s"),
               "batch_s": (_median(timed, "wall_s"), "s"),
               "peak_rss_mb": (_median(timed, "peak_rss_mb"), "MB")}
    return metrics, batches


def traced_run(job: dict) -> tuple[dict, list[dict], str]:
    traced = spawn(dict(job, mode="traced", workers=1, tag=f"{job['tag']}-traced"))
    plain = spawn(dict(job, mode="timed", workers=1, tag=f"{job['tag']}-plain"))
    batches = [traced, plain]
    if "layers" not in traced or "wall_s" not in plain:
        raise RuntimeError("traced batch failed: " + "; ".join(traced["failures"]
                                                              + plain["failures"]))
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    idle = 0.0
    if job["workload"] != "exact_oracle":
        par = spawn(dict(job, mode="sweep_timer", tag=f"{job['tag']}-par"))
        batches.append(par)
        if par.get("run_sweep_s"):
            idle = 1.0 - traced["busy_trials_s"] / (par["workers"] * par["run_sweep_s"])
    metrics["experiments.worker_idle_frac"] = (idle, "ratio")
    counts = traced["counts"]
    masks = counts.get("oracle_masks", 0)
    oracle_s = (metrics["graphs.oracle_moments.s"][0]
                + metrics["graphs.oracle_event_probability.s"][0])
    metrics["graphs.oracle.masks"] = (masks, "count")
    metrics["graphs.oracle.masks_per_s"] = (masks / oracle_s if oracle_s else 0.0, "masks/s")
    metrics["trials.sum_card"] = (counts.get("sum_card", 0), "count")
    metrics["trials.sum_card_sq"] = (counts.get("sum_card_sq", 0), "count")
    metrics["exact.max_numerator_bits"] = (counts.get("max_numerator_bits", 0), "bits")
    metrics["baseline.single_process_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    table = traced["table"] + "\nlayer shares of busy time: " + json.dumps(traced["shares"])
    return metrics, batches, table


def main(argv: list[str] | None = None, scale: str = "full") -> int:
    parser = argparse.ArgumentParser(description="modsetlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "modsetlab" / "__init__.py").is_file():
        print(f"error: no package source at {REPO_ROOT / 'src' / 'modsetlab'}",
              file=sys.stderr)
        return 2
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.workload == "exact_oracle":
        work = workloads.exact_job(args.seed, scale)
    else:
        work = workloads.sweep_job(args.workload, args.seed, scale, None, tag)
    job = {"workload": args.workload, "seed": args.seed, "scale": scale, "mode": "timed",
           "tag": tag, "operations": work.operations}
    try:
        if args.trace:
            metrics, batches, table = traced_run(job)
        else:
            metrics, batches = timed_run(job, args.seconds)
            table = ""
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    recorded = None
    if scale == "full" and args.seed == DEFAULT_SEED:
        with open(BENCH_DIR / "digests.json") as fh:
            recorded = json.load(fh).get(args.workload)
    problems = check_digests(batches, recorded)
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    failures = problems + [f for b in batches for f in b.get("failures", [])]

    prov = provenance(args, getattr(work, "workers", 1))
    print("provenance: " + json.dumps(prov))
    record = {"provenance": prov,
              "rationale": workloads.RATIONALE[args.workload],
              "batches": [{k: v for k, v in b.items() if k != "table"} for b in batches],
              "metrics": metrics, "failures": failures}
    with open(workloads.OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if table:
        (workloads.OUT_DIR / f"{tag}.selftime.txt").write_text(table + "\n")
        print(table)
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        walls = [b["wall_s"] for b in batches if "wall_s" in b]
        print(f"(medians of {len(walls)} batches; batch_s from {min(walls):.4g} "
              f"to {max(walls):.4g} s)")
        batch_s = metrics["batch_s"][0]
        if isinstance(work, workloads.SweepJob):
            print(f"trials_per_s = {work.operations / batch_s:.6g} 1/s")
        else:
            print(f"exact_batch_s = {batch_s:.6g} s")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

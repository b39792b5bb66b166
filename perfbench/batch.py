"""One batch of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/batch.py '<job as JSON>'

run.py starts this once per batch, so no import or lru_cache of one batch
helps the next.  The job holds the parent's CLOCK_MONOTONIC reading taken just
before the spawn; setup_s runs from there to the start of the timed section,
so it covers interpreter start, imports and input resolution (next_prime,
realized_p).  Output checks run after the timed section.

Modes: "timed" (no instrumentation), "traced" (a span around every layer
call, written to <tag>.spans.jsonl), "sweep_timer" (one span, around
run_sweep only, for the worker idle fraction).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_batch(job: dict) -> dict:
    import spans
    import workloads

    name, mode = job["workload"], job["mode"]
    workloads.OUT_DIR.mkdir(exist_ok=True)
    hooks = []
    if name == "exact_oracle":
        work = workloads.exact_job(job["seed"], job["scale"])
    else:
        work = workloads.sweep_job(name, job["seed"], job["scale"], job.get("workers"),
                                   job["tag"])
        if mode == "traced":
            hooks = spans.sweep_hooks()
        elif mode == "sweep_timer":
            hooks = [h for h in spans.sweep_hooks() if h[2] == "experiments.run_sweep"]
    recorder = spans.Recorder()
    span = recorder.span if mode == "traced" else None
    with spans.instrument(recorder, hooks):
        start = time.monotonic()
        try:
            rc = work.run(span)
        except Exception as e:  # a raising sweep fails all of its trials, in check()
            rc = e
        wall = time.monotonic() - start
    setup = start - job["spawned"]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome = work.check(rc)
    result = {
        "setup_s": setup, "wall_s": wall, "peak_rss_mb": max(own, kids) / 1024,
        "workers": getattr(work, "workers", 1),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "digest": outcome.digest, "counts": outcome.counts,
    }
    if mode != "timed":
        summary = spans.Summary(recorder)
        result["run_sweep_s"] = summary.total_s("experiments.run_sweep")
    if mode == "traced":
        recorder.write(workloads.OUT_DIR / f"{job['tag']}.spans.jsonl")
        result["layers"] = spans.layer_metrics(summary)
        result["busy_trials_s"] = summary.total_s("experiments.run_trial")
        result["table"] = summary.table()
        result["shares"] = summary.layer_shares()
    return result


def main(argv: list[str]) -> int:
    print(json.dumps(run_batch(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

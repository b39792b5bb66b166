"""Tests of the benchmark itself, on tiny configurations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import batch  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from modsetlab import exact, experiments  # noqa: E402
from modsetlab.sets import ResidueSet, sumset  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run_tiny(capsys, workload: str, trace: int) -> tuple[dict, str]:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)], scale="tiny")
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, text = _run_tiny(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert "failed_frac = 0 ratio" in text
        if trace == 0:
            assert all(result["metrics"][m]["value"] > 0 for m in want)
            rate = "exact_batch_s" if workload == "exact_oracle" else "trials_per_s"
            assert f"\n{rate} = " in text


def test_wrong_sumset_fails_the_checked_rows():
    job = workloads.sweep_job("critical_kmax", 3, "tiny", 1, "test-wrong-sumset")
    first = job.moduli[0]
    calls = []

    def wrong_sumset(A, kernel="auto"):
        S = sumset(A, kernel)
        calls.append(A.n)
        # trial 0 is spot-checked by the package itself; corrupt the others
        if A.n == first and calls.count(first) > 1 and S.mask:
            return ResidueSet(A.n, S.mask & (S.mask - 1))
        return S

    with spans.patched([(experiments, "sumset", wrong_sumset)]):
        rc = job.run()
    outcome = job.check(rc)
    bad = [t for t in job.checked[first] if t != 0]
    assert rc == 0 and bad
    assert outcome.failed == len(bad)
    assert all("trial row" in f for f in outcome.failures)


def test_raising_exact_call_is_counted_and_the_batch_goes_on():
    def boom(*args):
        raise RuntimeError("injected")

    with spans.patched([(exact, "prob_diff_missing", boom)]):
        job = workloads.exact_job(3, "tiny")
        job.run()
    outcome = job.check(0)
    # expected_missing_diffs calls prob_diff_missing internally, so it raises too
    hit = [c for c in job.calls
           if c.layer in ("exact.prob_diff_missing", "exact.expected_missing_diffs")]
    assert hit and outcome.failed == len(hit) < outcome.attempted
    assert all("raised" in f for f in outcome.failures)


def test_raising_sweep_fails_every_trial_without_crashing():
    def boom(A, kernel="auto"):
        raise RuntimeError("injected")

    job = {"workload": "dense_half", "seed": 3, "scale": "tiny", "mode": "timed",
           "workers": 1, "tag": "test-raising-sweep", "spawned": time.monotonic()}
    with spans.patched([(experiments, "difference_set", boom)]):
        result = batch.run_batch(job)
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]


def test_crashed_batch_and_digest_mismatch_are_counted():
    crashed = run.spawn({"workload": "dense_half", "seed": 3, "scale": "no-such-scale",
                         "mode": "timed", "tag": "test-crash", "operations": 7})
    assert crashed["attempted"] == crashed["failed"] == 7
    batches = [{"attempted": 5, "failed": 0, "digest": "a"},
               {"attempted": 5, "failed": 0, "digest": "b"}]
    assert len(run.check_digests(batches, None)) == 1
    assert [b["failed"] for b in batches] == [0, 5]
    assert len(run.check_digests(batches, "c")) == 2


def test_reference_sizes_match_brute_force():
    import numpy as np

    for n, members in ((7, [0, 1, 3]), (12, [2, 5, 6, 11]), (5, []), (9, [4])):
        idx = np.array(members, dtype=np.int64)
        sums = {(a + b) % n for a in members for b in members}
        diffs = {(a - b) % n for a in members for b in members}
        assert workloads.reference_sizes(idx, n) == (len(sums), len(diffs))


def test_float_references_match_exact_values():
    from fractions import Fraction

    p = Fraction(3, 10)
    for n in (5, 11, 23):
        assert abs(workloads.FLOAT_REFERENCE["exact.prob_diff_missing"](n, p)
                   - float(exact.prob_diff_missing(n, p))) < 1e-12
        assert abs(workloads.FLOAT_REFERENCE["exact.prob_both_sums_missing"](n, p)
                   - float(exact.prob_both_sums_missing(n, p))) < 1e-12
        assert abs(workloads.FLOAT_REFERENCE["exact.prob_diff_missing_composite"](2 * n, 2, p)
                   - float(exact.prob_diff_missing_composite(2 * n, 2, p))) < 1e-12


def test_default_seed_digests_are_recorded():
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    assert set(recorded) == set(run.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "dense_half",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

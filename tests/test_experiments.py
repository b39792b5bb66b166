"""Sweep determinism, aggregation, primality plumbing, and reports."""

import dataclasses
import io
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from modsetlab import (
    ParameterError,
    RegimeSpec,
    convergence_report,
    dyadic64,
    expected_missing_sums,
    is_prime,
    next_prime,
    realized_p,
    run_sweep,
    run_trial,
    write_trials_csv,
)
from modsetlab import exact, experiments, multiplicity, sets
from modsetlab.experiments import pool_size, report_as_dict, usable_cpus


class TestPrimes:
    def test_is_prime(self):
        assert is_prime(2) and is_prime(3) and is_prime(10007)
        assert not is_prime(0) and not is_prime(1) and not is_prime(4)
        assert not is_prime(561)          # Carmichael number
        assert is_prime(2 ** 61 - 1)      # Mersenne prime
        assert not is_prime(2 ** 61 + 1)

    def test_is_prime_is_shared_with_exact(self):
        assert experiments.is_prime is exact.is_prime

    def test_next_prime(self):
        assert next_prime(10000) == 10007
        assert next_prime(7) == 7
        assert next_prime(10 ** 6) == 1000003
        assert next_prime(0) == 2


class TestRegimeSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RegimeSpec(regime="fast", n_values=(100,), trials=5, base_seed=0, delta=0.4)
        with pytest.raises(ParameterError):
            RegimeSpec(regime="slow", n_values=(100,), trials=5, base_seed=0, delta=0.6)
        with pytest.raises(ParameterError):
            RegimeSpec(regime="critical", n_values=(100,), trials=5, base_seed=0)
        with pytest.raises(ParameterError):
            RegimeSpec(regime="warp", n_values=(100,), trials=5, base_seed=0)
        with pytest.raises(ParameterError):
            RegimeSpec(regime="fixed", n_values=(100,), trials=5, base_seed=0,
                       p_fixed=Fraction(1, 2), require_prime=True)

    @pytest.mark.parametrize("fields, message", [
        ({"regime": "intermediate"}, "intermediate regime needs gamma > 0"),
        ({"regime": "intermediate", "gamma": 0.0}, "intermediate regime needs gamma > 0"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"k_max": -1}, "k_max must be >= 0"),
        ({"workers": 0}, "workers must be >= 1"),
    ], ids=["no-gamma", "zero-gamma", "trials", "k_max", "workers"])
    def test_bounds(self, fields, message):
        spec = {"regime": "fixed", "n_values": (101,), "trials": 1, "base_seed": 0,
                "p_fixed": Fraction(1, 2), **fields}
        with pytest.raises(ParameterError, match=rf"^{message}$"):
            RegimeSpec(**spec)

    def test_require_prime_accepts_primes(self):
        spec = RegimeSpec(regime="fixed", n_values=(101, 10007), trials=1, base_seed=0,
                          p_fixed=Fraction(1, 2), require_prime=True)
        assert spec.n_values == (101, 10007)

    def test_realized_p(self):
        spec = RegimeSpec(regime="critical", n_values=(4,), trials=1, base_seed=0, c=1.0)
        assert realized_p(spec, 4) == Fraction(1, 2)
        spec = RegimeSpec(regime="fixed", n_values=(9,), trials=1, base_seed=0,
                          p_fixed=Fraction(3, 4))
        assert realized_p(spec, 9) == Fraction(3, 4)


class TestTrials:
    def test_record_invariants(self):
        rec = run_trial(101, Fraction(1, 4), base_seed=3, trial_index=2, k_max=3)
        assert rec.S + rec.S_missing == 101
        assert rec.D + rec.D_missing == 101
        assert rec.xk[0] == rec.card * (rec.card + 1) // 2
        assert rec.yk[0] == rec.card ** 2
        assert rec.ratio == Fraction(rec.D, rec.S)

    def test_empty_set_ratio_none(self):
        rec = run_trial(11, Fraction(0), base_seed=1, trial_index=0)
        assert rec.S == rec.D == 0
        assert rec.ratio is None

    def test_spot_check_passes(self):
        run_trial(101, Fraction(1, 3), base_seed=5, trial_index=0)

    def test_dense_spot_check_on_the_fft_backend(self):
        rec = run_trial(2003, Fraction(1, 2), base_seed=5, trial_index=0)
        assert sets._use_fft(rec.card, 2003)
        assert rec.S == rec.D == 2003

    def test_dense_spot_check_catches_a_corrupted_profile(self, monkeypatch):
        def corrupted(A):
            prof = multiplicity.multiplicity_profile(A)
            m_diff = prof.m_diff.copy()
            m_diff[1] = 0
            return multiplicity.MultiplicityProfile(A.n, prof.m_sum, m_diff)

        monkeypatch.setattr(experiments, "multiplicity_profile", corrupted)
        with pytest.raises(AssertionError, match="differences"):
            run_trial(2003, Fraction(1, 2), base_seed=5, trial_index=0)

    def test_sparse_spot_check_catches_corrupted_pair_counts(self, monkeypatch):
        # drop one sum from the counts the set memoizes: the spot check sets
        # the kernels' own scatter against them, other trials read them
        n, p = 10007, dyadic64(10007 ** -0.5)
        honest = [run_trial(n, p, 5, t, k_max=3) for t in (0, 1)]
        bincount = sets._pair_multiplicities

        def dropped(n, idx):
            m_sum, m_diff = bincount(n, idx)
            m_sum[np.flatnonzero(m_sum)[0]] = 0
            return m_sum, m_diff

        monkeypatch.setattr(sets, "_pair_multiplicities", dropped)
        assert not sets._use_fft(honest[0].card, n)
        with pytest.raises(AssertionError, match="inclusion-exclusion mismatch for sums"):
            run_trial(n, p, 5, 0, k_max=3)
        assert run_trial(n, p, 5, 1, k_max=3).S == honest[1].S - 1

    def test_sparse_spot_check_catches_a_repeated_pair_block(self, monkeypatch):
        # a repeated block leaves every support, and so both sizes, as they
        # were; only the count totals show it
        n, p = 10007, dyadic64(10007 ** -0.5)
        enumerate_pairs = sets._pair_residues

        def repeated(n, idx, subtract):
            blocks = list(enumerate_pairs(n, idx, subtract))
            yield from blocks[:1] + blocks

        monkeypatch.setattr(sets, "_pair_residues", repeated)
        assert not sets._use_fft(run_trial(n, p, 5, 1, k_max=3).card, n)
        with pytest.raises(AssertionError, match="pair count totals off"):
            run_trial(n, p, 5, 0, k_max=3)

    @pytest.mark.parametrize("subtract, kind", [(False, "sums"), (True, "differences")])
    def test_sparse_spot_check_catches_a_moved_pair_block(self, monkeypatch, subtract, kind):
        # moving a block's mass by one residue keeps its size, so the totals,
        # and the scatter and the count both read the moved block, so their
        # supports agree; only the recount at sampled residues sees it
        n, p = 10007, dyadic64(10007 ** -0.5)
        enumerate_pairs = sets._pair_residues

        def moved(n, idx, sub):
            for i, t in enumerate(enumerate_pairs(n, idx, sub)):
                if i == 0 and sub == subtract:
                    # differences stay in [1, n - 1]: residue 0 is set apart
                    t = t % (n - 1) + 1 if sub else (t + 1) % n
                yield t

        monkeypatch.setattr(sets, "_pair_residues", moved)
        assert not sets._use_fft(run_trial(n, p, 5, 1, k_max=3).card, n)
        monkeypatch.setattr(experiments, "_pick_kernel", lambda A: "dense")
        run_trial(n, p, 5, 0, k_max=3)  # support and totals checks pass
        monkeypatch.setattr(experiments, "_pick_kernel", sets._pick_kernel)
        with pytest.raises(AssertionError, match=f"sampled pair counts off for {kind}"):
            run_trial(n, p, 5, 0, k_max=3)

    @pytest.mark.parametrize("block", [1, 7, experiments._BLOCK])
    def test_pair_counts_at_sampled_residues(self, monkeypatch, block):
        monkeypatch.setattr(experiments, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in (1, 2, 12, 13, 97, 256, 10007):
            for members in ([], [n - 1], range(n), range(0, n, 2),
                            np.flatnonzero(rng.random(n) < 0.1)):
                A = sets.ResidueSet.from_indices(n, members)
                prof = multiplicity.multiplicity_profile(A)
                residues = rng.integers(0, n, 300)
                sums, diffs = experiments._pair_counts_at(A, residues)
                assert sums.tolist() == prof.m_sum[residues].tolist()
                assert diffs.tolist() == prof.m_diff[residues].tolist()

    @staticmethod
    def count_enumerations(monkeypatch, n, p, trial_index, k_max):
        """run_trial's pair enumerations, as the subtract flag of each call."""
        # every module that holds the pair enumerator counts its calls
        calls = []
        enumerate_pairs = sets._pair_residues
        for module in (sets, multiplicity):
            if hasattr(module, "_pair_residues"):
                monkeypatch.setattr(module, "_pair_residues",
                                    lambda *a: calls.append(a[2]) or enumerate_pairs(*a))
        card = run_trial(n, p, 5, trial_index, k_max).card
        assert sets._pick_kernel(sets.ResidueSet(n, (1 << card) - 1)) == "sparse"
        return calls, card

    @pytest.mark.parametrize("trial_index, k_max, enumerations", [
        (1, 3, 2), (1, 0, 2), (0, 3, 4), (0, 0, 4)])
    def test_pairs_enumerated_once_per_side(self, monkeypatch, trial_index, k_max,
                                            enumerations):
        n = 10007
        calls, card = self.count_enumerations(monkeypatch, n, dyadic64(n ** -0.5),
                                               trial_index, k_max)
        assert not sets._use_fft(card, n)
        assert len(calls) == enumerations and calls.count(True) == enumerations // 2

    @pytest.mark.parametrize("trial_index, enumerations", [(1, 0), (0, 2)])
    def test_fft_pair_counts_serve_the_sparse_kernels(self, monkeypatch, trial_index,
                                                      enumerations):
        # sparse kernels but FFT pair counts: the profile's memo serves the
        # kernels too, so only the spot check, which runs them first, scatters
        n = 10007
        calls, card = self.count_enumerations(monkeypatch, n, Fraction(3, 50),
                                               trial_index, k_max=3)
        assert sets._use_fft(card, n)
        assert len(calls) == enumerations and calls.count(True) == enumerations // 2

    @pytest.mark.parametrize("trial_index, checked", [(0, True), (1, False),
                                                      (99, False), (100, True)])
    def test_spot_check_every_hundredth_trial(self, monkeypatch, trial_index, checked):
        calls = []
        monkeypatch.setattr(experiments, "inclusion_exclusion_size",
                            lambda prof, kind: calls.append(kind) or -1)
        if checked:
            with pytest.raises(AssertionError, match="sums"):
                run_trial(101, Fraction(1, 3), base_seed=5, trial_index=trial_index)
        else:
            run_trial(101, Fraction(1, 3), base_seed=5, trial_index=trial_index)
        assert calls == (["sum"] if checked else [])


class TestSweep:
    def spec(self, workers=1, trials=30):
        return RegimeSpec(regime="fixed", n_values=(61, 101), trials=trials,
                          base_seed=77, p_fixed=Fraction(1, 8), k_max=2,
                          workers=workers)

    def test_reproducible(self):
        a = run_sweep(self.spec())
        b = run_sweep(self.spec())
        assert a.records == b.records
        assert a.aggregates == b.aggregates

    def test_worker_count_invisible(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)  # three children here too
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)  # however small the sweep
        serial = run_sweep(self.spec(workers=1))
        parallel = run_sweep(self.spec(workers=3))
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_trials_csv(serial.records, buf_a, {"w": 1})
        write_trials_csv(parallel.records, buf_b, {"w": 1})
        assert buf_a.getvalue() == buf_b.getvalue()

    @pytest.mark.parametrize("regime", [dict(regime="critical", n_values=(10007,), c=1.0),
                                        dict(regime="critical", n_values=(10000,), c=1.0),
                                        dict(regime="critical", n_values=(30030,), c=1.0),
                                        dict(regime="fixed", n_values=(2003,),
                                             p_fixed=Fraction(1, 2))])
    def test_sizes_do_not_depend_on_k_max(self, monkeypatch, regime):
        # trial 100 is spot-checked; the others read the sizes off the profile
        # when x_k/y_k are asked for, and scatter or rotate when not.  The even
        # moduli fold the difference n/2 and count a and a + n/2 on one sum 2a;
        # 30030 = 2*3*5*7*11*13.  The workers=2 leg forks wherever there are
        # two CPUs, however few draws the sweep makes
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        rows, csv_data = set(), set()
        for k_max in (0, 3):
            for workers in (1, 2):
                spec = RegimeSpec(trials=101, base_seed=11, k_max=k_max,
                                  workers=workers, **regime)
                records = run_sweep(spec).records
                rows.add(tuple((r.card, r.S, r.D, r.ratio) for r in records))
                buf = io.StringIO()
                write_trials_csv(records, buf, {"k_max": k_max, "workers": workers})
                csv_data.add(tuple(line for line in buf.getvalue().splitlines()
                                   if not line.startswith("#")))
        assert len(rows) == 1 and len(csv_data) == 1

    @pytest.mark.parametrize("k_max", [0, 3])
    def test_sizes_follow_the_kernels_named_in_experiments(self, monkeypatch, k_max):
        # the benchmark injects wrong rows by patching experiments.sumset and
        # experiments.difference_set, so S and D must come from those names
        # even when the profile's pair counts are at hand (k_max > 0)
        n, p, trial = 1009, dyadic64(1009 ** -0.5), 1
        assert trial % experiments.SPOT_CHECK_EVERY
        real = run_trial(n, p, 5, trial, k_max)
        monkeypatch.setattr(experiments, "sumset",
                            lambda A, kernel="auto": sets.ResidueSet(A.n, 0b1))
        monkeypatch.setattr(experiments, "difference_set",
                            lambda A, kernel="auto": sets.ResidueSet(A.n, 0b111))
        record = run_trial(n, p, 5, trial, k_max)
        assert (record.S, record.D, record.S_missing, record.D_missing) == (1, 3, n - 1, n - 3)
        assert (real.S, real.D) != (1, 3)
        assert (record.card, record.xk, record.yk) == (real.card, real.xk, real.yk)

    def test_one_pool_for_uneven_chunks_of_many_moduli(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        spec = RegimeSpec(regime="fixed", n_values=(61, 101, 67), trials=7, base_seed=3,
                          p_fixed=Fraction(1, 2), workers=2)
        serial = run_sweep(dataclasses.replace(spec, workers=1))
        parallel = run_sweep(spec)
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates
        assert [a.n for a in parallel.aggregates] == [61, 101, 67]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_trials_are_dealt_to_forked_children(self, monkeypatch, workers):
        # trial t of the i-th modulus runs in child (i + t) mod workers, and
        # this process runs none; each record carries the pid that made it
        def tagged(*job):
            return dataclasses.replace(run_trial(*job), xk=(os.getpid(),))

        monkeypatch.setattr(experiments, "run_trial", tagged)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: workers)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        spec = RegimeSpec(regime="fixed", n_values=(61, 101, 67), trials=7, base_seed=3,
                          p_fixed=Fraction(1, 2), workers=workers)
        records = run_sweep(spec).records
        pids = {}
        for i, n in enumerate(spec.n_values):
            for r in records:
                if r.n == n:
                    pids.setdefault((i + r.trial_index) % workers, set()).add(r.xk[0])
        assert sorted(pids) == list(range(workers))
        assert all(len(group) == 1 for group in pids.values())
        assert len(set.union(*pids.values()) - {os.getpid()}) == workers
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_child_stops_the_others(self, monkeypatch):
        # child 0 raises on trial 0 while child 1 sleeps: the error comes back
        # with its type and message, and child 1 is killed and reaped
        parent = os.getpid()

        def trial(n, p, base_seed, trial_index, k_max=0):
            if os.getpid() != parent:
                if trial_index == 0:
                    raise ParameterError(f"trial 0 failed at n={n}")
                if trial_index == 1:
                    time.sleep(60)
            return run_trial(n, p, base_seed, trial_index, k_max)

        monkeypatch.setattr(experiments, "run_trial", trial)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        start = time.monotonic()
        with pytest.raises(ParameterError, match="trial 0 failed at n=61"):
            run_sweep(self.spec(workers=2))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_the_sweep_runs_in_one_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        assert run_sweep(self.spec(workers=3)) == run_sweep(self.spec(workers=1))

    def test_small_sweep_runs_in_this_process(self, monkeypatch):
        # 30 x (61 + 101) draws are far below DRAWS_PER_WORKER: three workers
        # asked for and three CPUs, yet no fork, and the same rows
        def no_fork():
            raise AssertionError("a small sweep forked")

        serial = run_sweep(self.spec(workers=1))
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert run_sweep(self.spec(workers=3)) == serial

    def test_pool_size_clamp(self):
        work = experiments.DRAWS_PER_WORKER
        assert pool_size(5000, 5000, 5000 * work, 2) == 2  # never more than the usable CPUs
        assert pool_size(8, 3, 8 * work, 16) == 3          # nor than the trials per modulus
        assert pool_size(2, 100, 2 * work, 4) == 2
        assert pool_size(4, 100, 4 * work, 0) == 1         # at least one
        # nor than one per DRAWS_PER_WORKER residues drawn
        assert pool_size(4, 100, 3 * work - 1, 4) == 2
        assert pool_size(4, 100, 3 * work, 4) == 3
        assert pool_size(2, 100, 2 * work - 1, 2) == 1
        assert pool_size(2, 100, 0, 2) == 1
        assert usable_cpus() >= 1

    def test_record_count_and_order(self):
        res = run_sweep(self.spec())
        assert len(res.records) == 2 * 30
        keys = [(r.n, r.trial_index) for r in res.records]
        assert keys == sorted(keys)

    def test_aggregate_fractions_of_full(self):
        spec = RegimeSpec(regime="fixed", n_values=(31,), trials=20, base_seed=1,
                          p_fixed=Fraction(1, 2))
        agg = run_sweep(spec).aggregates[0]
        assert 0 <= agg.frac_S_full <= 1
        assert agg.trials == 20
        assert agg.mean_Sc == pytest.approx(31 - agg.mean_S)

    def test_all_empty_sets(self):
        spec = RegimeSpec(regime="fixed", n_values=(11,), trials=5, base_seed=1,
                          p_fixed=Fraction(0))
        agg = run_sweep(spec).aggregates[0]
        assert agg.ratio_count == 0
        assert agg.mean_ratio is None
        assert agg.mean_S == 0


class TestReports:
    def test_csv_shape(self):
        spec = RegimeSpec(regime="fixed", n_values=(31,), trials=4, base_seed=9,
                          p_fixed=Fraction(1, 2))
        res = run_sweep(spec)
        buf = io.StringIO()
        write_trials_csv(res.records, buf, {"seed": 9})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# modsetlab trials v1"
        assert lines[1].startswith("# config: ") and '"seed": 9' in lines[1]
        assert lines[2] == "n,p_num,p_den,p_float,trial,card,S,D,Sc,Dc,ratio"
        assert len(lines) == 3 + 4
        first = lines[3].split(",")
        assert first[0] == "31" and first[1] == "1" and first[2] == "2"

    def test_critical_c2_difference_target(self):
        spec = RegimeSpec(regime="critical", n_values=(10007,), trials=200,
                          base_seed=5, c=2.0)
        agg = run_sweep(spec).aggregates[0]
        assert abs(agg.mean_D / 10007 - 0.9816844) <= 0.02

    def test_critical_report_rows(self):
        spec = RegimeSpec(regime="critical", n_values=(1009,), trials=40,
                          base_seed=21, c=1.0)
        res = run_sweep(spec)
        rows = convergence_report(res.aggregates, spec)
        metrics = {r.metric for r in rows}
        assert {"mean_S", "mean_D", "mean_ratio"} <= metrics
        d_row = next(r for r in rows if r.metric == "mean_D")
        assert "1 - exp(-c^2)" in d_row.note

    def test_critical_concentration(self):
        # the per-trial sd of S/n scales like n^(-1/4) (~0.06 at n=10007), so
        # the meaningful concentration statement at this scale is about the
        # mean estimate: its standard error must sit well inside the 0.02
        # tolerance used for the regime targets
        spec = RegimeSpec(regime="critical", n_values=(10007,), trials=500,
                          base_seed=20260810, c=1.0)
        agg = run_sweep(spec).aggregates[0]
        assert agg.se_S / 10007 < 0.02
        assert agg.se_D / 10007 < 0.02

    def test_intermediate_report_within_3se(self):
        # a prime and an even modulus: E[S^c] is exact at every n
        spec = RegimeSpec(regime="intermediate", n_values=(10007, 10000), trials=100,
                          base_seed=31, gamma=1.0)
        res = run_sweep(spec)
        rows = [r for r in convergence_report(res.aggregates, spec) if r.metric == "mean_Sc"]
        assert [r.n for r in rows] == [10007, 10000]
        for row in rows:
            assert row.target == float(expected_missing_sums(row.n, realized_p(spec, row.n)))
            assert "within 3 SE: True" in row.note

    def test_mean_sc_window_is_3_se_at_least_half_a_step(self):
        spec = RegimeSpec(regime="fixed", n_values=(1000,), trials=50, base_seed=3,
                          p_fixed=Fraction(1, 2))
        agg = run_sweep(spec).aggregates[0]
        target = float(expected_missing_sums(1000, agg.p))

        def within(offset, se):
            moved = dataclasses.replace(agg, mean_Sc=target + offset, se_S=se)
            (row,) = convergence_report([moved], spec)
            assert (row.metric, row.target, row.std_error) == ("mean_Sc", target, se)
            return row.note.endswith("within 3 SE: True")

        assert within(2.9, 1.0) and within(-2.9, 1.0)
        assert not within(3.1, 1.0) and not within(-3.1, 1.0)
        # a mean of 50 trials moves in steps of 1/50, so the window is at least 1/100
        assert within(0.0099, 0.0) and not within(0.0101, 0.0)

    def test_report_dict_schema(self):
        spec = RegimeSpec(regime="slow", n_values=(101,), trials=10, base_seed=3,
                          delta=0.25)
        res = run_sweep(spec)
        d = report_as_dict(res, spec, {"x": 1})
        assert d["schema"] == "modsetlab/sweep-report/v1"
        assert d["config"] == {"x": 1}
        assert d["aggregates"][0]["n"] == 101
        assert any(row["metric"] == "frac_S_full" for row in d["comparisons"])
        # the v1 key order; x_k/y_k means only when k_max > 0
        keys = ["n", "p", "p_float", "trials", "mean_card", "mean_S", "var_S", "se_S",
                "mean_D", "var_D", "se_D", "mean_Sc", "mean_Dc", "frac_S_full",
                "frac_D_full", "ratio_count", "mean_ratio", "var_ratio", "se_ratio"]
        p = realized_p(spec, 101)
        assert list(d["aggregates"][0]) == keys
        assert d["aggregates"][0]["p"] == f"{p.numerator}/{p.denominator}"
        assert list(d["comparisons"][0]) == ["n", "metric", "empirical", "target",
                                             "rel_error", "std_error", "note"]
        spec = RegimeSpec(regime="fixed", n_values=(101,), trials=4, base_seed=3,
                          p_fixed=Fraction(1), k_max=2)
        res = run_sweep(spec)
        (agg,) = json.loads(json.dumps(report_as_dict(res, spec)))["aggregates"]
        assert list(agg) == keys + ["mean_xk", "mean_yk"] and agg["p"] == "1/1"
        assert agg["mean_xk"] == list(res.aggregates[0].mean_xk) and len(agg["mean_yk"]) == 2

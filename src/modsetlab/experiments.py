"""Deterministic Monte Carlo sweeps across the decay regimes.

Every trial is a pure function of (base_seed, trial_index), so a sweep can be
split across any number of worker processes and still produce byte-identical
output: records are sorted by (n, trial_index) and all aggregate statistics
are assembled from exact integer / rational accumulators, with divisions
performed once at the end.  The workers are children forked from the
sweeping process, so they start with every module it has loaded.  A sweep
forks only when its draws give each child at least DRAWS_PER_WORKER
residues; a smaller one runs in the sweeping process, where a child's
fork and copy-on-write faults would cost more than the second CPU saves.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import IO, Iterable

import numpy as np

from . import exact
from .errors import ParameterError, ResourceLimitError
from .exact import is_prime
from .multiplicity import inclusion_exclusion_size, multiplicity_profile, x_k, y_k
from .sets import _BLOCK, SampleSpec, _pick_kernel, difference_set, dyadic64, sample_subset, sumset

SCHEMA_VERSION = "1"
REGIMES = ("fast", "critical", "slow", "intermediate", "fixed")
SPOT_CHECK_EVERY = 100  # per-trial identity check on 1% of trials
SPOT_CHECK_RESIDUES = 256  # residues whose pair counts a sparse spot check recounts
# The fewest sampled residues (trials x sum of n) worth a forked worker.  One
# process against two forked children (2-vCPU Xeon VM, numpy 2.4): p = 1/2
# sweeps took 17.6 against 23.2 ms at 0.48 M draws and 32.5 against 38.2 ms
# at 1.6 M; critical ones with k_max = 5, 16.8 against 25.9 ms at 1.0 M and
# 122.9 against 89.2 ms at 8.0 M.  Two children broke even between 2 M and
# 5 M draws (BENCH_26.json).
DRAWS_PER_WORKER = 1 << 20

__all__ = [
    "RegimeSpec",
    "TrialRecord",
    "SweepAggregate",
    "SweepResult",
    "ReportRow",
    "is_prime",
    "next_prime",
    "realized_p",
    "run_trial",
    "run_sweep",
    "usable_cpus",
    "pool_size",
    "convergence_report",
    "write_trials_csv",
    "report_as_dict",
]

def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n < 2:
        return 2
    c = n
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class RegimeSpec:
    """One sweep: a decay regime, its parameter, moduli, and trial budget.

    regime/parameter pairs:
      fast         p = n^-delta, delta > 1/2
      critical     p = c * n^-1/2, c > 0
      slow         p = n^-delta, 0 < delta < 1/2
      intermediate p = gamma * sqrt(log n / n), gamma > 0
      fixed        p = p_fixed in [0, 1]

    `exact._check_regime` checks them.
    """

    regime: str
    n_values: tuple[int, ...]
    trials: int
    base_seed: int
    delta: float | None = None
    c: float | None = None
    gamma: float | None = None
    p_fixed: Fraction | None = None
    require_prime: bool = False
    k_max: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.regime not in REGIMES:
            raise ParameterError(f"unknown regime {self.regime!r}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ParameterError("n_values must be nonempty positive integers")
        for i, n in enumerate(self.n_values):
            if n in self.n_values[:i]:
                raise ParameterError(f"modulus n={n} appears more than once")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.k_max < 0:
            raise ParameterError("k_max must be >= 0")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        exact._check_regime(self.regime, self.delta, self.c, self.gamma)
        if self.regime == "fixed":
            if self.p_fixed is None:
                raise ParameterError("fixed regime needs p_fixed")
            object.__setattr__(self, "p_fixed", exact._as_probability(self.p_fixed))
        if self.require_prime:
            for n in self.n_values:
                if not is_prime(n):
                    raise ParameterError(f"require_prime is set but n={n} is composite")


def realized_p(spec: RegimeSpec, n: int) -> Fraction:
    """The exact rational inclusion probability used for modulus n (2^-64 grid)."""
    if spec.regime == "fast" or spec.regime == "slow":
        return dyadic64(n ** -spec.delta)
    if spec.regime == "critical":
        return dyadic64(spec.c / math.sqrt(n))
    if spec.regime == "intermediate":
        return dyadic64(spec.gamma * math.sqrt(math.log(n) / n))
    return dyadic64(spec.p_fixed)


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo outcome; ratio is None when S = 0 (empty A)."""

    n: int
    p: Fraction
    p_float: float
    trial_index: int
    card: int
    S: int
    D: int
    S_missing: int
    D_missing: int
    ratio: Fraction | None
    xk: tuple[int, ...] = ()
    yk: tuple[int, ...] = ()


def run_trial(n: int, p: Fraction, base_seed: int, trial_index: int,
              k_max: int = 0) -> TrialRecord:
    """Sample trial `trial_index` and measure its set sizes (and x_k/y_k if asked).

    When x_k/y_k are asked for, the profile comes first and the sparse kernels
    read A+A and A-A off its pair counts, so each side's pairs are enumerated
    at most once per trial, and not at all when the FFT filled the counts.

    Trials 0, SPOT_CHECK_EVERY, ... (1%) check the profile against the
    kernels: both sizes by inclusion-exclusion, and the count totals,
    |A|(|A|+1)/2 unordered sums and |A|^2 ordered differences.  That is a
    check only while the two sides are computed apart, so on these trials the
    kernels run before the profile exists.  On dense sets the rotations then
    face the FFT, which share no code.  On sparse sets the pair scatter faces
    the pair count, which share `_pair_residues` (tested against brute
    force): a dropped or repeated pair block leaves both supports as they
    were but not the totals, and a block whose mass moved keeps the totals
    too, so sparse sets also recount both sides at SPOT_CHECK_RESIDUES
    residues from the definitions (`_pair_counts_at`).
    """
    A = sample_subset(SampleSpec(n=n, p=p, base_seed=base_seed, trial_index=trial_index))
    spot_check = trial_index % SPOT_CHECK_EVERY == 0
    profile = multiplicity_profile(A) if k_max > 0 and not spot_check else None
    s = sumset(A).cardinality
    d = difference_set(A).cardinality
    if spot_check:
        # recount before the profile is counted, which measured the lower peak memory
        recount = None
        if _pick_kernel(A) == "sparse":
            residues = np.random.default_rng((n, trial_index)).integers(
                0, n, SPOT_CHECK_RESIDUES)
            recount = residues, _pair_counts_at(A, residues)
        profile = multiplicity_profile(A)
        for kind, size in (("sum", s), ("difference", d)):
            if inclusion_exclusion_size(profile, kind) != size:
                raise AssertionError(f"inclusion-exclusion mismatch for {kind}s "
                                     f"(n={n}, trial={trial_index})")
        c = A.cardinality
        if int(profile.m_sum.sum()) != c * (c + 1) // 2 or int(profile.m_diff.sum()) != c * c:
            raise AssertionError(f"pair count totals off (n={n}, trial={trial_index})")
        if recount:
            residues, got = recount
            for kind, g, counts in zip(("sum", "difference"), got,
                                       (profile.m_sum, profile.m_diff)):
                if not np.array_equal(g, counts[residues]):
                    raise AssertionError(f"sampled pair counts off for {kind}s "
                                         f"(n={n}, trial={trial_index})")
    xk: tuple[int, ...] = ()
    yk: tuple[int, ...] = ()
    if k_max > 0:
        xk = tuple(x_k(profile, k) for k in range(1, k_max + 1))
        yk = tuple(y_k(profile, k) for k in range(1, k_max + 1))
    return TrialRecord(
        n=n, p=p, p_float=float(p), trial_index=trial_index, card=A.cardinality,
        S=s, D=d, S_missing=n - s, D_missing=n - d,
        ratio=Fraction(d, s) if s else None, xk=xk, yk=yk,
    )


def _pair_counts_at(A, residues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m_sum[r], m_diff[r]) for each r of `residues`, counted from the definitions.

    m_sum[r] = (#{a in A : r - a in A} + #{a in A : 2a = r}) / 2 and
    m_diff[r] = #{a in A : a - r in A}, with membership read off the bytes of
    A's bit mask.  It shares no code with the pair enumerator of `sets`, and
    holds no length-n array: (residue, member) blocks of at most `sets._BLOCK`
    entries.
    """
    n, idx = A.n, A.indices()
    packed = np.frombuffer(A.mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    doubles = 2 * idx % n

    def members(t):  # per row, how many of the residues t (mod n) are in A
        np.add(t, n, out=t, where=t < 0)
        # a uint8 shift count keeps the shifted bytes uint8, not int64
        return np.count_nonzero((packed[t >> 3] >> (t & 7).astype(np.uint8)) & 1, axis=1)

    sums, diffs = [], []
    step = max(1, _BLOCK // max(idx.size, 1))
    for i in range(0, residues.size, step):
        rows = residues[i:i + step]
        diagonal = np.count_nonzero(np.equal.outer(rows, doubles), axis=1)
        sums.append((members(np.subtract.outer(rows, idx)) + diagonal) // 2)
        diffs.append(members(np.add.outer(-rows, idx)))
    return np.concatenate(sums), np.concatenate(diffs)


@dataclass(frozen=True)
class SweepAggregate:
    """Order-independent summary of all trials at one modulus."""

    n: int
    p: Fraction
    p_float: float
    trials: int
    mean_card: float
    mean_S: float
    var_S: float
    se_S: float
    mean_D: float
    var_D: float
    se_D: float
    mean_Sc: float
    mean_Dc: float
    frac_S_full: float
    frac_D_full: float
    ratio_count: int
    mean_ratio: float | None
    var_ratio: float | None
    se_ratio: float | None
    mean_xk: tuple[float, ...] = ()
    mean_yk: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        """The fields in order, p as "num/den"; x_k/y_k only when collected (k_max > 0)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if self.mean_xk or f.name not in ("mean_xk", "mean_yk")}
        d["p"] = f"{self.p.numerator}/{self.p.denominator}"
        return d


def _sample_stats(values: list) -> tuple[float, float, float]:
    """(mean, sample variance, standard error) of exact values (ints or Fractions),
    from their exact sum and sum of squares."""
    count = len(values)
    mean = Fraction(sum(values), count)
    if count > 1:
        var = (sum(x * x for x in values) - count * mean * mean) / (count - 1)
    else:
        var = Fraction(0)
    se = math.sqrt(float(var) / count)
    return float(mean), float(var), se


def _mean(values) -> float:
    """The exact mean of ints, bools or Fractions, rounded to a float once."""
    return float(Fraction(sum(values), len(values)))


def _aggregate(n: int, p: Fraction, records: list[TrialRecord]) -> SweepAggregate:
    mean_s, var_s, se_s = _sample_stats([r.S for r in records])
    mean_d, var_d, se_d = _sample_stats([r.D for r in records])
    ratios = [r.ratio for r in records if r.ratio is not None]
    mean_r, var_r, se_r = _sample_stats(ratios) if ratios else (None, None, None)
    return SweepAggregate(
        n=n, p=p, p_float=float(p), trials=len(records),
        mean_card=_mean([r.card for r in records]),
        mean_S=mean_s, var_S=var_s, se_S=se_s,
        mean_D=mean_d, var_D=var_d, se_D=se_d,
        mean_Sc=float(n) - mean_s, mean_Dc=float(n) - mean_d,
        frac_S_full=_mean([r.S == n for r in records]),
        frac_D_full=_mean([r.D == n for r in records]),
        ratio_count=len(ratios), mean_ratio=mean_r, var_ratio=var_r, se_ratio=se_r,
        mean_xk=tuple(map(_mean, zip(*(r.xk for r in records)))),
        mean_yk=tuple(map(_mean, zip(*(r.yk for r in records)))),
    )


@dataclass(frozen=True)
class SweepResult:
    records: list[TrialRecord]
    aggregates: list[SweepAggregate]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(workers: int, trials: int, draws: int, cpus: int) -> int:
    """Worker processes for a sweep: at most the requested count, the trials
    per modulus, the usable CPUs and one per DRAWS_PER_WORKER of the sweep's
    `draws` residues, and at least one."""
    return max(1, min(workers, trials, draws // DRAWS_PER_WORKER, cpus))


def run_sweep(spec: RegimeSpec) -> SweepResult:
    """Run trials x n_values; records come back sorted by (n, trial_index).

    Identical output for any worker count: per-trial streams depend only on
    (base_seed, trial_index), and aggregates are exact sums.  `spec.workers`
    is an upper bound (`pool_size`): a sweep of fewer than twice
    DRAWS_PER_WORKER sampled residues runs in this process.  With more than
    one worker the trials run in that many forked children
    (`_forked_trials`), and this process runs none; where the OS cannot fork,
    they all run in this process.
    """
    workers = pool_size(spec.workers, spec.trials, spec.trials * sum(spec.n_values),
                        usable_cpus())
    ps = [realized_p(spec, n) for n in spec.n_values]
    jobs = [(n, p, spec.base_seed, t, spec.k_max)
            for n, p in zip(spec.n_values, ps) for t in range(spec.trials)]
    if workers > 1 and hasattr(os, "fork"):
        records = _forked_trials(jobs, spec.trials, workers)
    else:
        records = [run_trial(*job) for job in jobs]
    m = spec.trials
    aggregates = [_aggregate(n, p, records[i * m:(i + 1) * m])
                  for i, (n, p) in enumerate(zip(spec.n_values, ps))]
    records.sort(key=lambda r: (r.n, r.trial_index))
    return SweepResult(records=records, aggregates=aggregates)


def _forked_trials(jobs: list[tuple], trials: int, workers: int) -> list[TrialRecord]:
    """The records of `jobs` (`trials` per modulus), in job order, from
    `workers` forked children.

    The children are forked, not spawned, so that each starts with every
    module this process has loaded and loads none during its trials (see the
    numpy imports of `sets`).  Trial t of the i-th modulus goes to child
    (i + t) mod workers, so each child gets an even share of every modulus,
    and the spot-checked trial 0 of successive moduli (the slowest trial) goes
    to successive children.  A child pickles its records, or the exception it
    raised, into its own pipe and leaves by os._exit, so none of this
    process's cleanup runs twice.  This process only reads the pipes, in
    child order: it re-raises the first exception, and a child that died
    without a payload is a ResourceLimitError.  Children still running on the
    way out, by any path, are killed, and every child is reaped.
    """
    shares = [[j for j in range(len(jobs)) if (j // trials + j % trials) % workers == w]
              for w in range(workers)]
    pids: list[int] = []  # children not yet reaped, in child order
    pipes: list[IO[bytes]] = []
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:  # the child: whatever happens, it leaves by os._exit
                status = 1
                try:
                    try:
                        payload = [run_trial(*jobs[j]) for j in share]
                    except Exception as e:
                        payload = e
                    with open(write_fd, "wb") as out:
                        pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
        records: list = [None] * len(jobs)
        for w, (pipe, share) in enumerate(zip(pipes, shares)):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code < 0:
                raise ResourceLimitError(f"sweep worker {w} was killed by signal {-code} "
                                         f"({signal.strsignal(-code)})")
            if code:
                raise ResourceLimitError(f"sweep worker {w} exited with status {code}")
            result = pickle.loads(payload)
            if isinstance(result, Exception):
                raise result
            for j, record in zip(share, result):
                records[j] = record
        return records
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class ReportRow:
    """One empirical-vs-target comparison."""

    n: int
    metric: str
    empirical: float
    target: float
    rel_error: float | None
    std_error: float | None
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _row(agg: SweepAggregate, metric: str, empirical: float, target: float,
         se: float | None = None, note: str = "", expectation: bool = False) -> ReportRow:
    """One report row.  Against an exact expectation the note says whether the
    mean is within 3 SE of it; a mean of m trials resolves multiples of 1/m,
    so the window is at least 1/(2m) when the sample variance is zero, and an
    expectation below that resolution gets no relative error: it would read
    -1 whenever the mean is 0, which it then nearly always is."""
    resolution = 0.5 / agg.trials if expectation else 0.0
    if expectation:
        within = abs(empirical - target) <= max(3 * se, resolution)
        note = f"exact expectation; within 3 SE: {within}"
    rel = (empirical - target) / target if target and target >= resolution else None
    return ReportRow(agg.n, metric, empirical, target, rel, se, note)


def convergence_report(aggregates: Iterable[SweepAggregate],
                       spec: RegimeSpec) -> list[ReportRow]:
    """Empirical means vs regime targets (or exact expectations), one row per metric."""
    rows: list[ReportRow] = []
    for agg in aggregates:
        if spec.regime in ("fast", "critical", "slow"):
            tg = exact.theoretical_targets(spec.regime, agg.n, c=spec.c, delta=spec.delta)
            note = ("difference target uses 1 - exp(-c^2), the form consistent "
                    "with the alternating series and the ratio law"
                    if spec.regime == "critical" else "")
            rows += [_row(agg, "mean_S", agg.mean_S, tg.S_target, agg.se_S),
                     _row(agg, "mean_D", agg.mean_D, tg.D_target, agg.se_D, note)]
            if agg.mean_ratio is not None:
                rows.append(_row(agg, "mean_ratio", agg.mean_ratio, tg.ratio_target,
                                 agg.se_ratio))
        if spec.regime == "slow":
            rows += [_row(agg, "frac_S_full", agg.frac_S_full, 1.0,
                          note="desk-scale slow decay needs delta well below 1/2; "
                               "near 1/2 the log n = o(n p^2) regime requires "
                               "astronomically large n"),
                     _row(agg, "frac_D_full", agg.frac_D_full, 1.0)]
        if spec.regime in ("slow", "intermediate", "fixed"):
            esc = float(exact.expected_missing_sums(agg.n, agg.p))
            rows.append(_row(agg, "mean_Sc", agg.mean_Sc, esc, agg.se_S, expectation=True))
    return rows


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "n,p_num,p_den,p_float,trial,card,S,D,Sc,Dc,ratio"


def write_trials_csv(records: Iterable[TrialRecord], out: IO[str],
                     config: dict | None = None) -> None:
    """Stable v1 CSV: two comment lines (schema, resolved config) then the header."""
    out.write(f"# modsetlab trials v{SCHEMA_VERSION}\n")
    out.write(f"# config: {json.dumps(config or {}, sort_keys=True)}\n")
    out.write(CSV_HEADER + "\n")
    for r in sorted(records, key=lambda r: (r.n, r.trial_index)):
        ratio = repr(float(r.ratio)) if r.ratio is not None else ""
        out.write(f"{r.n},{r.p.numerator},{r.p.denominator},{r.p_float!r},"
                  f"{r.trial_index},{r.card},{r.S},{r.D},"
                  f"{r.S_missing},{r.D_missing},{ratio}\n")


def report_as_dict(result: SweepResult, spec: RegimeSpec,
                   config: dict | None = None) -> dict:
    """JSON-ready sweep report: resolved config, aggregates, comparison rows."""
    return {
        "schema": f"modsetlab/sweep-report/v{SCHEMA_VERSION}",
        "config": config or {},
        "aggregates": [a.as_dict() for a in result.aggregates],
        "comparisons": [row.as_dict()
                        for row in convergence_report(result.aggregates, spec)],
    }

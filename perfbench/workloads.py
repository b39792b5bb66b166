"""The three benchmark workloads: inputs from a seed, one batch, and its output checks.

critical_kmax  critical sweep p = n^-1/2 with x_k/y_k.  |A| ~ sqrt(n), so the
               sparse pair kernels of `sets` and `multiplicity_profile` run on
               every trial; at the 1e6 modulus each int64 bincount is 8 MB.
dense_half     fixed p = 1/2 sweep.  `auto` picks the dense big-int rotation
               kernel; `multiplicity` runs only in the 1% spot checks, each one
               huge O(|A|^2) call that unbalances the worker chunks.
exact_oracle   exact rationals (f_series ladder, cycle/path probabilities) and
               the 2^n oracle, asserted equal to the closed forms.

The sweeps load `sets`/`multiplicity`/`experiments` and leave `exact`/`graphs`
idle; exact_oracle does the opposite.  So each is the no-change control for an
optimisation aimed at the other.

Every check here is independent of the package's kernels: set sizes come from
the benchmark's own pair-set reference, exact values from float recurrences
and from `f_series_log`, oracle values from the closed forms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".out"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

from modsetlab import cli, exact, experiments, graphs, multiplicity  # noqa: E402
from modsetlab.experiments import next_prime  # noqa: E402
from modsetlab.sets import SampleSpec, dyadic64, sample_subset  # noqa: E402

# Why each workload exists, the layers it loads, and each layer's share of
# busy (self) time in the traced run at the default seed, measured on a
# 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.
RATIONALE = {
    "critical_kmax": {
        "why": "the paper's headline regime p = n^-1/2 plus the repeated-pair "
               "statistics x_k/y_k; sparse pair kernels on every trial",
        "loads": ["sets", "multiplicity", "experiments", "cli"],
        "seed_shares": {"sets": 0.3254, "multiplicity": 0.6503, "exact": 0.0,
                        "graphs": 0.0, "experiments": 0.0233, "cli": 0.001},
    },
    "dense_half": {
        "why": "the A+A = Z/nZ end: dense rotation kernel on every trial, plus "
               "one O(|A|^2) spot check per modulus that unbalances the worker chunks",
        "loads": ["sets", "multiplicity", "experiments", "cli"],
        "seed_shares": {"sets": 0.2759, "multiplicity": 0.7222, "exact": 0.0,
                        "graphs": 0.0, "experiments": 0.0012, "cli": 0.0006},
    },
    "exact_oracle": {
        "why": "exact rationals and the 2^n oracle with no Monte Carlo: the control "
               "for sweep optimisations, as the sweeps are for this one",
        "loads": ["exact", "graphs"],
        "seed_shares": {"sets": 0.0, "multiplicity": 0.0001, "exact": 0.6048,
                        "graphs": 0.3951, "experiments": 0.0, "cli": 0.0},
    },
}

# Sizes.  "full" is what the benchmark measures; "tiny" is for its own tests.
SWEEPS = {
    "critical_kmax": {
        "full": {"bands": (100_000, 1_000_000), "jitter": 1000, "trials": 40},
        "tiny": {"bands": (1_000, 3_000), "jitter": 50, "trials": 6},
        "flags": ["--regime", "critical", "--c", "1", "--kmax", "5"],
        "workers": 2,
        "checked_per_modulus": 4,
    },
    "dense_half": {
        "full": {"bands": (10_000, 20_000), "jitter": 100, "trials": 16},
        "tiny": {"bands": (200, 400), "jitter": 20, "trials": 6},
        "flags": ["--p", "1/2"],
        "workers": 2,
        "checked_per_modulus": 2,
    },
}
EXACT = {
    "full": {"ladder": (500, 1000, 2000, 4000, 8000), "primes": (250, 500),
             "moments": (13, 17), "events": 19},
    "tiny": {"ladder": (50, 100), "primes": (23,), "moments": (7,), "events": 9},
}
F_DELTAS = (0.25, 0.4)
Y_K = (2, 3)
REL_TOL = 1e-9


def pick(seed: int, label: str, span: int) -> int:
    """A deterministic integer in [0, span) drawn from (seed, label)."""
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "little") % span


@dataclass
class Outcome:
    """What one batch attempted, what failed, and what it measured besides time."""

    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)

    def fail(self, message: str, weight: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + weight)
        if len(self.failures) < 20:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# Monte Carlo sweeps through the CLI


def reference_sizes(idx: np.ndarray, n: int) -> tuple[int, int]:
    """|A+A| and |A-A| as the sizes of the pair sets {a+b}, {a-b} mod n.

    Each member a ORs a shifted copy of the indicator of A (resp. -A) into the
    result, so this shares no code with the package's kernels.
    """
    ind = np.zeros(n, dtype=bool)
    ind[idx] = True
    neg = np.roll(ind[::-1], 1)  # neg[x] = ind[-x mod n]
    sums = np.zeros(n, dtype=bool)
    diffs = np.zeros(n, dtype=bool)
    for a in idx.tolist():
        sums[a:] |= ind[:n - a]
        sums[:a] |= ind[n - a:]
        diffs[a:] |= neg[:n - a]
        diffs[:a] |= neg[n - a:]
    return int(sums.sum()), int(diffs.sum())


@dataclass
class SweepJob:
    name: str
    seed: int
    moduli: tuple[int, ...]
    p: dict[int, Fraction]
    trials: int
    workers: int
    k_max: int
    checked: dict[int, tuple[int, ...]]
    csv_path: Path
    report_path: Path

    @property
    def operations(self) -> int:
        return self.trials * len(self.moduli)

    def argv(self) -> list[str]:
        spec = SWEEPS[self.name]
        return (["sweep", *spec["flags"], "--n", *map(str, self.moduli),
                 "--require-prime", "--trials", str(self.trials),
                 "--seed", str(self.seed), "--workers", str(self.workers),
                 "--out", str(self.csv_path), "--report", str(self.report_path)])

    def run(self, span=None) -> int:
        """The timed section: one whole `modsetlab sweep` call, in-process."""
        if span is None:
            return cli.main(self.argv())
        with span("cli.main"):
            return cli.main(self.argv())

    def check(self, rc) -> Outcome:
        out = Outcome(self.operations)
        if rc != 0:
            out.fail(f"cli.main returned {rc!r}", self.operations)
            return out
        try:
            rows, out.digest = _read_trials_csv(self.csv_path)
            with open(self.report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as e:
            out.fail(f"unreadable output: {e}", self.operations)
            return out
        keys = [(int(r["n"]), int(r["trial"])) for r in rows]
        expected = [(n, t) for n in self.moduli for t in range(self.trials)]
        if keys != expected:
            out.fail(f"CSV holds {len(keys)} rows out of order or missing "
                     f"(expected {len(expected)})", self.operations)
            return out
        by_key = dict(zip(keys, rows))
        cards = [int(r["card"]) for r in rows]
        out.counts = {"sum_card": sum(cards), "sum_card_sq": sum(c * c for c in cards)}
        for n in self.moduli:
            for t in self.checked[n]:
                message = self._check_row(n, t, by_key[(n, t)])
                if message:
                    out.fail(message)
            message = self._check_aggregate(n, [by_key[(n, t)] for t in range(self.trials)],
                                            report)
            if message:
                out.fail(message, self.trials)
        return out

    def _check_row(self, n: int, t: int, row: dict) -> str | None:
        p = self.p[n]
        A = sample_subset(SampleSpec(n=n, p=p, base_seed=self.seed, trial_index=t))
        idx = A.indices()
        s, d = reference_sizes(idx, n)
        ratio = repr(float(Fraction(d, s))) if s else ""
        want = {"p_num": str(p.numerator), "p_den": str(p.denominator),
                "card": str(idx.size), "S": str(s), "D": str(d),
                "Sc": str(n - s), "Dc": str(n - d), "ratio": ratio}
        got = {k: row[k] for k in want}
        if got != want:
            return f"trial row n={n} t={t}: got {got}, reference {want}"
        return None

    def _check_aggregate(self, n: int, rows: list[dict], report: dict) -> str | None:
        aggs = [a for a in report.get("aggregates", []) if a.get("n") == n]
        if len(aggs) != 1:
            return f"report has {len(aggs)} aggregates for n={n}"
        agg = aggs[0]
        m = len(rows)
        cards = [int(r["card"]) for r in rows]
        want = {"trials": m,
                "mean_S": float(Fraction(sum(int(r["S"]) for r in rows), m)),
                "mean_D": float(Fraction(sum(int(r["D"]) for r in rows), m))}
        if self.k_max:
            # X_1 counts unordered pairs with repetition, Y_1 ordered pairs
            want["mean_xk[0]"] = float(Fraction(sum(c * (c + 1) // 2 for c in cards), m))
            want["mean_yk[0]"] = float(Fraction(sum(c * c for c in cards), m))
        got = {"trials": agg.get("trials"), "mean_S": agg.get("mean_S"),
               "mean_D": agg.get("mean_D")}
        if self.k_max:
            xk, yk = agg.get("mean_xk") or [None], agg.get("mean_yk") or [None]
            got["mean_xk[0]"], got["mean_yk[0]"] = xk[0], yk[0]
            if len(xk) != self.k_max or len(yk) != self.k_max:
                return f"report n={n}: x_k/y_k lists are not of length {self.k_max}"
        if got != want:
            return f"report n={n}: got {got}, from CSV {want}"
        return None


def _read_trials_csv(path: Path) -> tuple[list[dict], str]:
    """Data rows of a trials CSV and a digest of its header and rows.

    The comment lines hold the resolved config, worker count included, so
    they are left out of the digest: it must not depend on the worker count.
    """
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    return list(csv.DictReader(lines)), digest


def sweep_job(name: str, seed: int, scale: str, workers: int | None, tag: str) -> SweepJob:
    spec = SWEEPS[name]
    size = spec[scale]
    moduli = tuple(next_prime(band + pick(seed, f"n{i}", size["jitter"]))
                   for i, band in enumerate(size["bands"]))
    trials = size["trials"]
    # the CLI resolves p itself; this copy is only for the output checks
    regime = experiments.RegimeSpec(
        regime="critical" if name == "critical_kmax" else "fixed", n_values=moduli,
        trials=trials, base_seed=seed, c=1.0, p_fixed=Fraction(1, 2))
    p = {n: experiments.realized_p(regime, n) for n in moduli}
    k = min(spec["checked_per_modulus"], trials)
    checked = {n: tuple(sorted(_distinct(seed, f"check{n}", trials, k))) for n in moduli}
    return SweepJob(
        name=name, seed=seed, moduli=moduli, p=p, trials=trials,
        workers=workers or spec["workers"], k_max=5 if name == "critical_kmax" else 0,
        checked=checked, csv_path=OUT_DIR / f"{tag}.csv",
        report_path=OUT_DIR / f"{tag}.report.json")


def _distinct(seed: int, label: str, span: int, k: int) -> set[int]:
    out: set[int] = set()
    i = 0
    while len(out) < k:
        out.add(pick(seed, f"{label}:{i}", span))
        i += 1
    return out


# ---------------------------------------------------------------------------
# exact rationals and the 2^n oracle, called through the library


def indep_path(m: int, p: float) -> float:
    """P(A is independent on a path of m vertices), float transfer recurrence."""
    q = 1.0 - p
    out_, in_ = 1.0, 0.0  # last vertex out of / in A
    for _ in range(m):
        out_, in_ = (out_ + in_) * q, out_ * p
    return out_ + in_


def indep_cycle(n: int, p: float) -> float:
    """P(A is independent on the n-cycle): condition on vertex 0, n >= 3."""
    q = 1.0 - p
    return q * indep_path(n - 1, p) + p * q * q * indep_path(n - 3, p)


def _cycle_nonempty(n: int, p: float) -> float:
    return indep_cycle(n, p) - (1.0 - p) ** n


# float references, keyed by the layer name of the call they check
FLOAT_REFERENCE: dict[str, Callable] = {
    "exact.f_series": lambda n, p: math.exp(exact.f_series_log(n, p)),
    "exact.prob_diff_missing": lambda n, p: _cycle_nonempty(n, float(p)),
    "exact.prob_both_sums_missing":
        lambda n, p: (1.0 - float(p)) ** 2 * indep_path(n - 2, float(p)),
    "exact.prob_diff_missing_composite":
        lambda n, k, p: _cycle_nonempty(n // math.gcd(n, k), float(p)) ** math.gcd(n, k),
    "exact.expected_missing_sums":
        lambda n, p: n * (1.0 - float(p)) * (1.0 - float(p) ** 2) ** ((n - 1) // 2),
    "exact.expected_missing_diffs": lambda n, p: (n - 1) * _cycle_nonempty(n, float(p)),
}


@dataclass
class Call:
    """One library call of the exact batch."""

    key: str
    layer: str  # "<module>.<function>", the span name in the traced run
    fn: Callable
    args: tuple
    masks: int = 0  # subsets the 2^n oracle enumerates


def _fractions(value) -> list[Fraction]:
    if isinstance(value, graphs.OracleMoments):
        return [value.E_Sc, value.E_Dc, value.Var_Sc, value.Var_Dc]
    if isinstance(value, exact.MissingDiffExpectation):
        return [value.value, value.bound]
    return [Fraction(value)]


@dataclass
class ExactJob:
    calls: list[Call]
    # (oracle key, results -> (oracle value, closed form)), asserted equal
    comparisons: list[tuple[str, Callable]]
    results: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.calls)

    def run(self, span=None) -> int:
        """The timed section: every call once; a raising call is kept, not fatal."""
        for call in self.calls:
            try:
                if span is None:
                    self.results[call.key] = call.fn(*call.args)
                else:
                    with span(call.layer):
                        self.results[call.key] = call.fn(*call.args)
            except Exception as e:  # counted as a failed operation by check()
                self.results[call.key] = e
        return 0

    def check(self, rc) -> Outcome:
        out = Outcome(self.operations)
        bad: dict[str, str] = {}
        for call in self.calls:
            value = self.results.get(call.key)
            if isinstance(value, Exception) or value is None:
                bad[call.key] = f"{call.key} raised {value!r}"
                continue
            ref = FLOAT_REFERENCE.get(call.layer)
            if ref is not None:
                got = value.value if call.layer == "exact.expected_missing_diffs" else value
                want = ref(*call.args)
                rel = abs(float(got) / want - 1.0) if want else abs(float(got))
                if not rel <= REL_TOL:
                    bad[call.key] = f"{call.key}: relative error {rel:.3g} against float reference"
        for oracle_key, pair in self.comparisons:
            try:
                o, c = pair(self.results)
            except (AttributeError, TypeError):
                continue  # an input raised, which is already counted
            if isinstance(o, Exception) or isinstance(c, Exception):
                continue
            if o != c:
                bad.setdefault(oracle_key, f"{oracle_key}: oracle {o} != closed form {c}")
        for message in bad.values():
            out.fail(message)
        digest = hashlib.sha256()
        bits = 0
        for call in self.calls:
            value = self.results.get(call.key)
            if isinstance(value, Exception) or value is None:
                continue
            for f in _fractions(value):
                digest.update(f"{call.key}=".encode())  # str() of a big int may exceed
                for part in (f.numerator, f.denominator):  # Python's digit limit
                    digest.update(part.to_bytes(part.bit_length() // 8 + 1, "little") + b"/")
                bits = max(bits, f.numerator.bit_length())
        out.digest = digest.hexdigest()
        out.counts = {"max_numerator_bits": bits,
                      "oracle_masks": sum(c.masks for c in self.calls)}
        return out


def exact_job(seed: int, scale: str) -> ExactJob:
    size = EXACT[scale]
    c = 0.8 + pick(seed, "c", 41) / 100  # critical constant, p = c n^-1/2
    calls: list[Call] = []
    comparisons: list[tuple[str, Callable]] = []

    def add(key, layer, fn, *args, masks=0):
        calls.append(Call(key, layer, fn, args, masks))

    for delta in F_DELTAS:
        for i, base in enumerate(size["ladder"]):
            n = base + pick(seed, f"ladder{i}", 16)
            add(f"F({n},{delta})", "exact.f_series", exact.f_series, n, dyadic64(n ** -delta))
    third = Fraction(1, 3)
    for band in size["primes"]:
        n = next_prime(band + pick(seed, f"prime{band}", 8))
        p = dyadic64(c / math.sqrt(n))
        add(f"Pdiff({n})", "exact.prob_diff_missing", exact.prob_diff_missing, n, p)
        add(f"Pboth({n})", "exact.prob_both_sums_missing", exact.prob_both_sums_missing, n, p)
        add(f"ESc({n})", "exact.expected_missing_sums", exact.expected_missing_sums, n, p)
        for k in Y_K:
            add(f"EY{k}({n})", "multiplicity.expected_y_k_exact",
                multiplicity.expected_y_k_exact, n, p, k)
        add(f"Pcomp({2 * n},2)", "exact.prob_diff_missing_composite",
            exact.prob_diff_missing_composite, 2 * n, 2, p)
        add(f"EDc({n},1/3)", "exact.expected_missing_diffs",
            exact.expected_missing_diffs, n, third)
    for n in size["moments"]:
        p = dyadic64(c / math.sqrt(n))
        add(f"moments({n})", "graphs.oracle_moments", graphs.oracle_moments, n, p,
            masks=1 << n)
        add(f"ESc({n})", "exact.expected_missing_sums", exact.expected_missing_sums, n, p)
        add(f"Pdiff({n})", "exact.prob_diff_missing", exact.prob_diff_missing, n, p)
        # as `modsetlab oracle --moments`: E[D^c] = (n-1) P(k not in A-A) + n q^n
        comparisons += [
            (f"moments({n})", lambda r, n=n: (r[f"moments({n})"].E_Sc, r[f"ESc({n})"])),
            (f"moments({n})", lambda r, n=n, q=1 - p: (
                r[f"moments({n})"].E_Dc, (n - 1) * r[f"Pdiff({n})"] + n * q ** n)),
        ]
    n = size["events"]
    p = dyadic64(c / math.sqrt(n))
    k = 1 + pick(seed, "k", n - 1)
    i = pick(seed, "i", n)
    j = (i + 1 + pick(seed, "j", n - 1)) % n
    add(f"oracle_diff({n},{k})", "graphs.oracle_event_probability",
        graphs.oracle_event_probability, n, p, graphs.event_diff_missing(k), False,
        masks=(1 << n) - 1)
    add(f"Pdiff({n})", "exact.prob_diff_missing", exact.prob_diff_missing, n, p)
    add(f"oracle_sums({n},{i},{j})", "graphs.oracle_event_probability",
        graphs.oracle_event_probability, n, p, graphs.event_sums_missing(i, j), True,
        masks=1 << n)
    add(f"Pboth({n})", "exact.prob_both_sums_missing", exact.prob_both_sums_missing, n, p)
    comparisons += [
        (f"oracle_diff({n},{k})", lambda r: (r[f"oracle_diff({n},{k})"], r[f"Pdiff({n})"])),
        (f"oracle_sums({n},{i},{j})",
         lambda r: (r[f"oracle_sums({n},{i},{j})"], r[f"Pboth({n})"])),
    ]
    if len({call.key for call in calls}) != len(calls):
        raise ValueError("exact batch keys collide")
    return ExactJob(calls=calls, comparisons=comparisons)

"""Spans around calls into each layer, recorded from outside the package.

The traced run swaps module attributes for timing wrappers (and puts them
back afterwards), so nothing under src/ changes.  Spans stay in memory and
are written out once, at the end of the run.

A layer is a module of the package: sets, multiplicity, exact, graphs,
experiments, cli.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("sets", "multiplicity", "exact", "graphs", "experiments", "cli")


class Recorder:
    """In-memory spans: [id, parent id, name, start, end, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, perf_counter(), None, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, raised in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "raised": raised}) + "\n")


@contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def sweep_hooks():
    """(module, attribute, span name) for every layer call a CLI sweep makes.

    `run_trial` looks its kernels up in the `experiments` namespace, the CLI
    holds its own reference to `run_sweep`, and `convergence_report` reaches
    `exact` through the module, so these are the attributes to swap.
    """
    from modsetlab import cli, exact, experiments

    return [
        (experiments, "sample_subset", "sets.sample_subset"),
        (experiments, "sumset", "sets.sumset"),
        (experiments, "difference_set", "sets.difference_set"),
        (experiments, "multiplicity_profile", "multiplicity.multiplicity_profile"),
        (experiments, "x_k", "multiplicity.x_k"),
        (experiments, "y_k", "multiplicity.y_k"),
        (experiments, "inclusion_exclusion_size", "multiplicity.inclusion_exclusion_size"),
        (experiments, "run_trial", "experiments.run_trial"),
        (cli, "run_sweep", "experiments.run_sweep"),
        (experiments, "convergence_report", "experiments.convergence_report"),
        (experiments, "write_trials_csv", "experiments.write_trials_csv"),
        (exact, "theoretical_targets", "exact.theoretical_targets"),
        (exact, "expected_missing_sums", "exact.expected_missing_sums"),
    ]


def instrument(recorder: Recorder, hooks):
    return patched([(obj, attr, recorder.wrap(name, getattr(obj, attr)))
                    for obj, attr, name in hooks])


def _pct(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0.0 for a layer that was not called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Summary:
    """Durations and self times per span name, from one recorder."""

    def __init__(self, recorder: Recorder):
        spans = recorder.spans
        child_time = [0.0] * len(spans)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.dur: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        self.raised: dict[str, int] = {}
        for sid, _, name, start, end, raised in spans:
            self.dur.setdefault(name, []).append(end - start)
            self.self_time.setdefault(name, []).append(end - start - child_time[sid])
            self.raised[name] = self.raised.get(name, 0) + raised

    def ms(self, name: str, q: int) -> float:
        return _pct(self.dur.get(name, []), q) * 1e3

    def self_ms(self, name: str, q: int) -> float:
        return _pct(self.self_time.get(name, []), q) * 1e3

    def total_s(self, name: str) -> float:
        return sum(self.dur.get(name, []))

    def layer(self, layer: str) -> tuple[int, int, float]:
        """(calls, failed calls, self seconds) over every span of one layer."""
        names = [n for n in self.dur if n.split(".", 1)[0] == layer]
        return (sum(len(self.dur[n]) for n in names),
                sum(self.raised[n] for n in names),
                sum(sum(self.self_time[n]) for n in names))

    def table(self) -> str:
        """Per-layer self-time table, busiest first."""
        busy = sum(sum(v) for v in self.self_time.values()) or 1.0
        rows = sorted(((sum(self.self_time[n]), n) for n in self.dur), reverse=True)
        lines = [f"{'span':44} {'calls':>7} {'self s':>9} {'share':>7} {'p50 ms':>9}"]
        for self_s, name in rows:
            lines.append(f"{name:44} {len(self.dur[name]):7d} {self_s:9.4f} "
                         f"{self_s / busy:7.2%} {self.ms(name, 50):9.3f}")
        return "\n".join(lines)

    def layer_shares(self) -> dict[str, float]:
        busy = sum(sum(v) for v in self.self_time.values()) or 1.0
        return {layer: round(self.layer(layer)[2] / busy, 4) for layer in LAYERS}


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """Every per-layer metric that spans alone give, by name: (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    for name in ("sets.sample_subset", "sets.sumset", "sets.difference_set",
                 "multiplicity.multiplicity_profile", "experiments.run_trial"):
        m[f"{name}.ms_p50"] = (s.ms(name, 50), "ms")
        m[f"{name}.ms_p90"] = (s.ms(name, 90), "ms")
    for name in ("multiplicity.x_k", "multiplicity.y_k",
                 "multiplicity.inclusion_exclusion_size"):
        m[f"{name}.ms_p50"] = (s.ms(name, 50), "ms")
    m["experiments.run_trial.self_ms_p50"] = (s.self_ms("experiments.run_trial", 50), "ms")
    for name in ("multiplicity.expected_y_k_exact", "exact.f_series",
                 "exact.prob_diff_missing", "exact.prob_both_sums_missing",
                 "exact.prob_diff_missing_composite", "exact.expected_missing_diffs",
                 "exact.expected_missing_sums", "graphs.oracle_moments",
                 "graphs.oracle_event_probability"):
        m[f"{name}.s"] = (s.total_s(name), "s")
    m["exact.f_series.max_ms"] = (max(s.dur.get("exact.f_series", [0.0])) * 1e3, "ms")
    m["experiments.convergence_report.ms"] = (s.total_s("experiments.convergence_report") * 1e3,
                                              "ms")
    m["experiments.write_trials_csv.ms"] = (s.total_s("experiments.write_trials_csv") * 1e3,
                                            "ms")
    main = s.total_s("cli.main")
    m["cli.overhead_s"] = (main - s.total_s("experiments.run_sweep") if main else 0.0, "s")
    for layer in LAYERS:
        calls, failed, self_s = s.layer(layer)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.failed"] = (failed, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
    return m

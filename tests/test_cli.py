"""End-to-end CLI behavior: outputs, determinism, config file, exit codes."""

import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from modsetlab import SampleSpec, cli, sample_subset
from modsetlab import exact, experiments, graphs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


class TestSample:
    def test_full_inclusion(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "7", "--p", "1",
                               "--trials", "3", "--seed", "1")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:
            fields = row.split(",")
            assert fields[6] == "7" and fields[7] == "7"  # S and D columns

    def test_deterministic(self, capsys):
        args = ("sample", "--n", "51", "--p", "1/2", "--trials", "4", "--seed", "5")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MODSETLAB_SEED", "99")
        _, out_env, _ = run_cli(capsys, "sample", "--n", "31", "--p", "1/2",
                                "--trials", "2")
        _, out_flag, _ = run_cli(capsys, "sample", "--n", "31", "--p", "1/2",
                                 "--trials", "2", "--seed", "99")
        assert out_env == out_flag

    def test_non_integer_env_seed_is_a_parameter_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MODSETLAB_SEED", "abc")
        assert run_cli(capsys, "sample", "--n", "7", "--p", "1/2") == \
            (1, "", "error: MODSETLAB_SEED must be an integer, got 'abc'\n")

    def test_require_prime_resolves(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "10000", "--p", "1/2",
                               "--trials", "1", "--seed", "1", "--require-prime")
        assert code == 0
        header = next(l for l in out.splitlines() if l.startswith("# config"))
        assert '"n_values": [10007]' in header

    def test_parameter_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "7", "--p", "3/2",
                               "--trials", "1")
        assert code == 1
        assert err == "error: p=3/2 outside [0, 1]\n"

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_unparseable_p_is_a_parameter_error(self, capsys, text):
        # the parser's own message, not argparse's "invalid _fraction value"
        with pytest.raises((ValueError, ZeroDivisionError)) as info:
            Fraction(text)
        assert run_cli(capsys, "sample", "--n", "7", "--p", text, "--trials", "1") == \
            (1, "", f"error: argument --p: cannot parse probability {text!r}: {info.value}\n")

    @pytest.mark.parametrize("flags, message", [
        (("--regime", "fixed"), "fixed regime needs --p"),
        ((), "need either --p or --regime"),
    ], ids=["fixed-without-p", "neither"])
    def test_no_probability_is_a_parameter_error(self, capsys, flags, message):
        assert run_cli(capsys, "sample", "--n", "7", "--trials", "1", *flags) == \
            (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("n, p, workers", [
        (10 ** 20, "1/2", "1"), (10 ** 20, "0", "1"),
        (10 ** 20, "1/2", "2"), (10 ** 20, "0", "2"), (2 ** 61, "1/2", "1"),
    ])
    def test_modulus_beyond_an_array_is_a_resource_limit(self, capsys, n, p, workers):
        # n uint64 draws (or an n-bit mask) cannot be allocated: the modulus
        # is rejected before anything of size n is, on either side of a pool
        code, out, err = run_cli(capsys, "sample", "--n", str(n), "--p", p,
                                 "--trials", "2", "--workers", workers, "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith(f"resource limit: modulus n={n} is above ")
        assert "Traceback" not in err

    def test_kmax_is_a_sweep_flag(self, capsys, tmp_path):
        # sample prints no x_k/y_k, so it takes no --kmax, from a flag or a config
        argv = ("sample", "--n", "101", "--p", "1/2", "--trials", "1")
        assert run_cli(capsys, *argv, "--kmax", "5") == \
            (1, "", "error: unrecognized arguments: --kmax 5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=5\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (1, "") and "--kmax=5" in err


@pytest.mark.parametrize("argv, name", [
    (("sample", "--n", "101", "--trials", "1", "--regime", "critical", "--c", "inf"), "c"),
    (("sample", "--n", "101", "--trials", "1", "--regime", "intermediate",
      "--gamma", "inf"), "gamma"),
    (("sweep", "--n", "101", "--trials", "1", "--regime", "fast", "--delta", "inf"), "delta"),
    (("exact", "targets", "--regime", "critical", "--n", "101", "--c", "inf"), "c"),
    (("exact", "targets", "--regime", "fast", "--n", "101", "--delta", "inf"), "delta"),
    # ignored by the regime, but the resolved config would record it
    (("sample", "--n", "101", "--trials", "1", "--p", "1/2", "--c", "inf"), "c"),
], ids=["sample-critical-c", "sample-intermediate-gamma", "sweep-fast-delta",
        "targets-critical-c", "targets-fast-delta", "sample-fixed-unused-c"])
def test_infinite_regime_parameter_is_a_parameter_error(capsys, argv, name):
    assert run_cli(capsys, *argv) == (1, "", f"error: {name} must be finite, got inf\n")


# formula -> (flags, printed params, the library call it must print)
EXACT_CASES = {
    "path": (("--n", "10", "--k", "3"), {"m": 10, "r": 3}, lambda: exact.path_count(10, 3)),
    "cycle": (("--n", "7", "--k", "2"), {"n": 7, "k": 2}, lambda: exact.cycle_count(7, 2)),
    "lucas": (("--n", "10"), {"n": 10}, lambda: exact.lucas(10)),
    "F": (("--n", "10", "--p", "1/3"), {"n": 10, "p": "1/3"},
          lambda: exact.f_series(10, Fraction(1, 3))),
    "ESc": (("--n", "9", "--p", "2/5"), {"n": 9, "p": "2/5"},
            lambda: exact.expected_missing_sums(9, Fraction(2, 5))),
    "PdiffMissing": (("--n", "11", "--p", "1/3"), {"n": 11, "p": "1/3"},
                     lambda: exact.prob_diff_missing(11, Fraction(1, 3))),
    "PdiffComposite": (("--n", "12", "--k", "3", "--p", "2/5"), {"n": 12, "k": 3, "p": "2/5"},
                       lambda: exact.prob_diff_missing_composite(12, 3, Fraction(2, 5))),
    "PbothSums": (("--n", "13", "--p", "0.25"), {"n": 13, "p": "1/4"},
                  lambda: exact.prob_both_sums_missing(13, Fraction(1, 4))),
    "EDc": (("--n", "7", "--p", "1/3"), {"n": 7, "p": "1/3"},
            lambda: exact.expected_missing_diffs(7, Fraction(1, 3)).value),
    "gauges": (("--n", "10007", "--p", "0.1"), {"n": 10007, "p": "1/10"},
               lambda: exact.gauge_functions(10007, Fraction(1, 10))),
    "targets": (("--regime", "fast", "--n", "1000", "--delta", "0.75"),
                {"n": 1000, "regime": "fast", "c": None, "delta": 0.75},
                lambda: exact.theoretical_targets("fast", 1000, delta=0.75)),
}


class TestExact:
    def get_json(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out, parse_constant=_not_json)  # strict: no Infinity or NaN

    @pytest.mark.parametrize("formula", list(cli._EXACT))
    def test_every_formula_prints_its_library_call(self, capsys, formula):
        flags, params, call = EXACT_CASES[formula]
        data = self.get_json(capsys, "exact", formula, *flags)
        assert list(data)[:2] == ["formula", "params"]
        assert data["formula"] == formula and data["params"] == params
        value = call()
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
            assert data["numerator"] == str(value.numerator)
            assert data["denominator"] == str(value.denominator)
            assert data["value"] == float(value)
        else:  # a dataclass prints its fields in order
            assert list(data)[2:] == list(asdict(value))
            assert {k: data[k] for k in asdict(value)} == asdict(value)

    @pytest.mark.parametrize("argv, value", [
        (("lucas", "--n", "1500"), lambda: exact.lucas(1500)),
        (("path", "--n", "3000", "--k", "700"), lambda: exact.path_count(3000, 700)),
        (("cycle", "--n", "4000", "--k", "900"), lambda: exact.cycle_count(4000, 900)),
    ], ids=["lucas", "path", "cycle"])
    def test_value_is_null_beyond_float_range(self, capsys, argv, value):
        data = self.get_json(capsys, "exact", *argv)
        assert data["value"] is None
        assert (data["numerator"], data["denominator"]) == (str(value()), "1")

    def test_gauge_beyond_float_range_is_null(self, capsys):
        data = self.get_json(capsys, "exact", "gauges", "--n", str(10 ** 83), "--p", "1e-90")
        assert data["h"] is None
        assert data["log_h"] == pytest.approx(765.1514, abs=1e-4)  # log 2 + 4 log n
        assert data["G"] == pytest.approx(1e83)

    @pytest.mark.parametrize("argv, message", [
        (("gauges", "--n", "0", "--p", "1/2"), "n must be >= 1"),
        (("gauges", "--n", "-5", "--p", "1/2"), "n must be >= 1"),
        (("ESc", "--n", "-3", "--p", "1/2"), "n must be >= 1"),
        (("ESc", "--n", "0", "--p", "1/2"), "n must be >= 1"),
        (("targets", "--regime", "slow", "--n", str(10 ** 400)), "n is beyond float range"),
        (("targets", "--regime", "critical", "--c", "1", "--n", str(10 ** 400)),
         "n is beyond float range"),
        (("gauges", "--n", str(10 ** 400), "--p", "1/3"), "n is beyond float range"),
    ], ids=["gauges-0", "gauges-negative", "ESc-negative", "ESc-0",
            "targets-slow-huge", "targets-critical-huge", "gauges-huge"])
    def test_nonpositive_n_is_a_parameter_error(self, capsys, argv, message):
        # n beyond float range is rejected like n < 1: the gauges and targets are floats
        code, out, err = run_cli(capsys, "exact", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_lucas(self, capsys):
        data = self.get_json(capsys, "exact", "lucas", "--n", "10")
        assert data["numerator"] == "123"

    def test_cycle(self, capsys):
        data = self.get_json(capsys, "exact", "cycle", "--n", "7", "--k", "2")
        assert data["numerator"] == "14"

    def test_esc(self, capsys):
        data = self.get_json(capsys, "exact", "ESc", "--n", "7", "--p", "1/2")
        assert (data["numerator"], data["denominator"]) == ("189", "128")
        assert data["asymptotic_form"] == "567/256"

    def test_esc_even_n_is_the_oracle_mean(self, capsys):
        data = self.get_json(capsys, "exact", "ESc", "--n", "8", "--p", "1/2")
        value = graphs.oracle_moments(8, Fraction(1, 2)).E_Sc
        assert (data["numerator"], data["denominator"]) == \
            (str(value.numerator), str(value.denominator))
        assert data["asymptotic_form"] == "81/32"  # n (1-p^2)^(n/2) = 8 (3/4)^4

    def test_edc_carries_bound(self, capsys):
        data = self.get_json(capsys, "exact", "EDc", "--n", "5", "--p", "1/2")
        assert (data["numerator"], data["denominator"]) == ("5", "4")
        assert data["bound_2nF"] == "5/2"

    def test_edc_at_composite_n(self, capsys):
        # the oracle's E[D^c] less the empty set's 6 q^6; no series bound at composite n
        data = self.get_json(capsys, "exact", "EDc", "--n", "6", "--p", "1/3")
        value = graphs.oracle_moments(6, Fraction(1, 3)).E_Dc - 6 * Fraction(2, 3) ** 6
        assert (data["numerator"], data["denominator"]) == \
            (str(value.numerator), str(value.denominator))
        assert data["bound_2nF"] is None

    def test_gauges(self, capsys):
        data = self.get_json(capsys, "exact", "gauges", "--n", "10007", "--p", "0.1")
        assert data["log_G"] < 0

    def test_targets(self, capsys):
        data = self.get_json(capsys, "exact", "targets", "--regime", "critical",
                             "--n", "10007", "--c", "1")
        assert data["ratio_target"] == pytest.approx(1.6065306597)

    def test_slow_targets_need_delta(self, capsys):
        # as a slow sweep does: the one regime check owns the rule
        assert run_cli(capsys, "exact", "targets", "--regime", "slow", "--n", "101") == \
            (1, "", "error: slow regime needs 0 < delta < 1/2\n")

    def test_rational_beyond_the_int_str_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        data = self.get_json(capsys, "exact", "F", "--n", "2000", "--p", "0.123")
        assert sys.get_int_max_str_digits() == limit
        assert len(data["numerator"]) > limit
        value = Fraction(int(Decimal(data["numerator"])), int(Decimal(data["denominator"])))
        assert value == exact.f_series(2000, Fraction(123, 1000))

    def test_digits_match_decimal(self):
        rng = random.Random(5)
        cases = [0, 1, 9, 2 ** 4096 - 1, 2 ** 4096, 2 ** 4097 + 1, 2 ** 64 ** 2]
        for k in (1, 19, 1233, 1234, 2500, 5000, 20000):
            cases += [10 ** k - 1, 10 ** k, 10 ** k + 1]
        for digits in (30, 1300, 5000, 12345, 40000, 100000):
            cases.append(rng.randrange(10 ** (digits - 1), 10 ** digits))
        for x in cases:
            assert cli._digits(x) == str(Decimal(x))
            assert cli._digits(-x) == str(Decimal(-x))

    def test_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "exact", "F", "--n", "10")
        assert code == 1 and "--p" in err
        # every subcommand names exactly the flags that are missing
        for argv, message in [
            (("exact", "PdiffComposite", "--p", "1/2"), "formula 'PdiffComposite' needs --n, --k"),
            (("oracle", "--n", "7", "--p", "1/2", "--event", "both-sums-missing", "--i", "1"),
             "both-sums-missing needs --j"),
            (("oracle", "--n", "7", "--p", "1/2", "--event", "both-sums-missing", "--j", "1"),
             "both-sums-missing needs --i"),
            (("graphs", "--n", "7", "--mode", "sum", "--j", "5"), "sum mode needs --i"),
            (("graphs", "--n", "7", "--mode", "diff"), "diff mode needs --k"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unknown_formula(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "zeta", "--n", "2")
        assert code == 1


class TestOracle:
    def test_diff_missing_prime(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "5", "--p", "1/2",
                               "--event", "diff-missing", "--k", "1")
        assert code == 0
        data = json.loads(out)
        comp = data["comparisons"][0]
        assert data["oracle"] == "5/16"
        assert comp["equal"] is True and comp["asserted"] is True

    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("event", [("diff-missing", "--k", "3"),
                                       ("sum-missing", "--i", "2"),
                                       ("both-sums-missing", "--i", "1", "--j", "4")],
                             ids=lambda event: event[0])
    def test_events_asserted_with_and_without_empty_set(self, capsys, event, include_empty):
        # the diff-missing closed form leaves out A = empty and the sum forms
        # count it; either way the oracle must match for both settings
        flag = ("--include-empty",) if include_empty else ()
        code, out, _ = run_cli(capsys, "oracle", "--n", "7", "--p", "1/3",
                               "--event", *event, *flag)
        data = json.loads(out)
        (comp,) = data["comparisons"]
        assert data["include_empty_set"] is include_empty
        assert comp["asserted"] is True and comp["equal"] is True
        assert code == 0

    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("event", ["diff-missing", "sum-missing", "both-sums-missing"])
    @pytest.mark.parametrize("n", [6, 8, 9])
    def test_events_at_composite_moduli(self, capsys, n, event, include_empty):
        p = Fraction(2, 5)
        k, i, j = n // 3, 2, 5
        flags = {"diff-missing": ("--k", str(k)), "sum-missing": ("--i", str(i)),
                 "both-sums-missing": ("--i", str(i), "--j", str(j))}[event]
        targets = {"diff-missing": (), "sum-missing": (i,), "both-sums-missing": (i, j)}[event]
        empty = ("--include-empty",) if include_empty else ()
        code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--p", "2/5",
                               "--event", event, *flags, *empty)
        data = json.loads(out)
        assert code == 0

        def holds(A):
            if event == "diff-missing":
                return all((a + k) % n not in A for a in A)
            return all((t - a) % n not in A for t in targets for a in A)

        masks = range(0 if include_empty else 1, 1 << n)
        sets = ({a for a in range(n) if mask >> a & 1} for mask in masks)
        brute = sum((p ** len(A) * (1 - p) ** (n - len(A)) for A in sets if holds(A)),
                    Fraction(0))
        assert data["oracle"] == f"{brute.numerator}/{brute.denominator}"
        # every event is asserted at every modulus: several cycles (diff), a
        # loop-free sum at even n (one sum), or paths and cycles (two sums)
        (comp,) = data["comparisons"]
        assert comp["asserted"] is True and comp["equal"] is True
        assert comp["closed_form"] == data["oracle"] and comp["delta"] == "0/1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 10, 12, 14, 15, 16])
    def test_closed_forms_asserted_by_graph_shape(self, capsys, n):
        # whatever paths and cycles the pair graph splits into, at any
        # modulus, each event and both moment means are asserted and equal
        def comparisons(*flags):
            code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--p", "1/3", *flags)
            assert code == 0
            return json.loads(out)["comparisons"]

        events = [("diff-missing", "--k", str(k)) for k in range(1, n)]
        events += [("sum-missing", "--i", str(i)) for i in range(n)]
        events += [("both-sums-missing", "--i", str(i), "--j", str(j))
                   for i in (0, 1) for j in range(i + 1, n)]
        for event in events:
            (comp,) = comparisons("--event", *event)
            assert comp["asserted"] is True and comp["equal"] is True
        comps = comparisons("--moments")
        assert [c["comparison"] for c in comps] == ["E_Sc", "E_Dc"]
        assert all(c["asserted"] and c["equal"] for c in comps)

    @pytest.mark.parametrize("n", [7, 8, 9])
    @pytest.mark.parametrize("flags, message", [
        (("diff-missing", "--k", "0"), "k must be a nonzero residue"),
        (("diff-missing", "--k", "{n}"), "k must be a nonzero residue"),
        (("both-sums-missing", "--i", "2", "--j", "{n2}"), "the two target sums must differ"),
    ], ids=["k=0", "k=n", "j=i+n"])
    def test_zero_difference_and_equal_targets_rejected(self, capsys, n, flags, message):
        flags = [f.format(n=n, n2=n + 2) for f in flags]
        code, out, err = run_cli(capsys, "oracle", "--n", str(n), "--p", "1/3",
                                 "--event", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [("diff-missing", "--k", "30"),
                                       ("both-sums-missing", "--i", "1", "--j", "31")],
                             ids=lambda flags: flags[0])
    def test_cap_comes_before_the_target_check(self, capsys, flags):
        # the oracle runs first and caps n; only then does the graph reject the target
        assert run_cli(capsys, "oracle", "--n", "30", "--p", "1/2", "--event", *flags) == \
            (3, "", "resource limit: enumeration oracle capped at n <= 22, got 30\n")

    @pytest.mark.parametrize("flags", [("diff-missing", "--k", "1"), ("sum-missing", "--i", "1"),
                                       ("both-sums-missing", "--i", "1", "--j", "2")],
                             ids=lambda flags: flags[0])
    def test_nonpositive_n_is_a_parameter_error(self, capsys, flags):
        for n in ("0", "-3"):
            code, out, err = run_cli(capsys, "oracle", "--n", n, "--p", "1/2", "--event", *flags)
            assert (code, out) == (1, "") and err.startswith("error: n must be >= ")

    def test_diff_missing_composite_asserted(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "6", "--p", "1/2",
                               "--event", "diff-missing", "--k", "2")
        assert code == 0
        (comp,) = json.loads(out)["comparisons"]
        assert comp["comparison"] == "P(k not in A-A)"
        assert comp["asserted"] is True and comp["equal"] is True and comp["delta"] == "0/1"
        # two 3-cycles, unconditioned: not the per-cycle-nonempty product form
        per_cycle = exact.prob_diff_missing_composite(6, 2, Fraction(1, 2))
        assert comp["closed_form"] != f"{per_cycle.numerator}/{per_cycle.denominator}"

    @pytest.mark.parametrize("flags, message", [
        (("--moments", "--event", "diff-missing", "--k", "0"),
         "argument --event: not allowed with argument --moments"),
        (("--k", "1"), "oracle needs --moments or --event"),
    ], ids=["both", "neither"])
    def test_moments_or_event(self, capsys, flags, message):
        assert run_cli(capsys, "oracle", "--n", "7", "--p", "1/2", *flags) == \
            (1, "", f"error: {message}\n")

    def test_moments(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "7", "--p", "1/2", "--moments")
        assert code == 0
        data = json.loads(out)
        assert data["moments"]["E_Sc"] == "189/128"
        assert [c["comparison"] for c in data["comparisons"]] == ["E_Sc", "E_Dc"]
        assert all(c["equal"] and c["asserted"] for c in data["comparisons"])

    def test_moments_at_every_n_up_to_the_cap(self, capsys):
        # the console-script step's oracle checks, at every modulus the oracle takes
        for n in range(1, 23):
            code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--p", "1/3", "--moments")
            comps = json.loads(out)["comparisons"]
            assert code == 0 and [c["comparison"] for c in comps] == ["E_Sc", "E_Dc"], n
            assert all(c["equal"] for c in comps), n

    def test_moments_above_the_old_cap(self, capsys):
        # n = 22 at p = 1/3 is the console-script step of CI: even n at the cap
        for n, p in (("19", "1/2"), ("22", "1/3")):
            code, out, _ = run_cli(capsys, "oracle", "--n", n, "--p", p, "--moments")
            assert code == 0
            assert all(c["equal"] for c in json.loads(out)["comparisons"])

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "23", "--p", "1/2",
                               "--event", "diff-missing", "--k", "1")
        assert code == 3
        assert "resource" in err

    def test_assertion_exit_code(self, capsys, monkeypatch):
        # force a closed-form mismatch to exercise the asserted-failure path
        monkeypatch.setattr(exact, "independence_probability",
                            lambda components, p: Fraction(1, 3))
        code, out, _ = run_cli(capsys, "oracle", "--n", "5", "--p", "1/2",
                               "--event", "diff-missing", "--k", "1")
        assert code == 2
        assert json.loads(out)["comparisons"][0]["equal"] is False


class TestGraphs:
    def test_sum_graph_text(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "7", "--mode", "sum",
                               "--i", "2", "--j", "5")
        assert code == 0
        assert "components: [('path', 7, 2, 1)]" in out
        assert "(1, 1)" in out and "(6, 6)" in out  # the end loops

    def test_diff_graph_prime(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "7", "--mode", "diff", "--k", "2")
        assert code == 0 and "components: [('cycle', 7, 0, 1)]" in out

    def test_diff_graph_composite(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "6", "--mode", "diff", "--k", "2")
        assert code == 0 and "components: [('cycle', 3, 0, 2)]" in out

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "5", "--mode", "diff",
                               "--k", "1", "--dot")
        assert code == 0
        assert out.startswith("graph modset {") and "--" in out
        assert "components=[('cycle', 5, 0, 1)]" in out.splitlines()[0]


class TestSweepCommand:
    def test_files_and_schema(self, capsys, tmp_path):
        csv_path = tmp_path / "trials.csv"
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "sweep", "--regime", "critical", "--c", "1",
                             "--n", "101", "211", "--trials", "10", "--seed", "4",
                             "--workers", "1", "--out", str(csv_path),
                             "--report", str(report_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# modsetlab trials v1"
        assert len(lines) == 3 + 20
        report = json.loads(report_path.read_text())
        assert report["schema"] == "modsetlab/sweep-report/v1"
        assert report["config"]["regime"] == "critical"
        assert {a["n"] for a in report["aggregates"]} == {101, 211}

    def test_stdout_report(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--regime", "slow", "--delta", "0.25",
                               "--n", "101", "--trials", "5", "--seed", "4",
                               "--workers", "1")
        assert code == 0
        report = json.loads(out)
        assert any(r["metric"] == "frac_S_full" for r in report["comparisons"])

    def test_negligible_expectation_has_no_relative_error(self, capsys):
        # E[S^c] at p = 1/2 is far below a 20-trial mean's resolution 1/40, so
        # the mean is 0 and a relative error would read -1 on a matching row
        code, out, _ = run_cli(capsys, "sweep", "--p", "1/2", "--n", "1009", "1000",
                               "--trials", "20", "--seed", "3", "--workers", "1")
        assert code == 0
        rows = [r for r in json.loads(out)["comparisons"] if r["metric"] == "mean_Sc"]
        assert [r["n"] for r in rows] == [1009, 1000]
        for row in rows:
            assert 0 < row["target"] < 1e-59 and row["empirical"] == 0
            assert row["rel_error"] is None and row["note"].endswith("within 3 SE: True")

    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime=fixed\np=1/2\nn=31\ntrials=6\nseed=8\nworkers=1\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--trials", "2")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["trials"] == 2      # flag wins
        assert report["config"]["n_values"] == [31]  # from config file

    def test_config_both_spellings_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\ntrials=3\nc=2\n")

        def config_of(*argv):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            header = next(l for l in out.splitlines() if l.startswith("# config: "))
            return json.loads(header[len("# config: "):])

        base = ("--n", "101", "--regime", "critical", "--c", "1", "--trials", "2")
        spellings = [("--config", str(cfg), "sample", *base),
                     (f"--config={cfg}", "sample", *base),
                     ("sample", f"--config={cfg}", *base),
                     ("sample", *base, f"--config={cfg}")]
        for argv in spellings:
            config = config_of(*argv)
            assert config["seed"] == 5                          # from the file
            assert config["trials"] == 2 and config["c"] == 1  # flags win
        # --c is the sampling flag, never an abbreviation of --config
        assert config_of(f"--config={cfg}", "sample", "--n", "101",
                         "--regime", "critical")["c"] == 2
        code, _, err = run_cli(capsys, "--c", str(cfg), "sample", "--n", "7", "--p", "1/2")
        assert code == 1 and err.startswith("error: ")

    def test_config_value_with_a_space(self, capsys, tmp_path):
        out = tmp_path / "my runs" / "t.csv"
        out.parent.mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={out}\nseed=3\n")
        code, _, err = run_cli(capsys, "sample", "--config", str(cfg),
                               "--n", "7", "--p", "1/2", "--trials", "2")
        assert code == 0, err
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 3  # header and two trials

    def test_config_n_takes_several_moduli(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=101 211\np=1/2\ntrials=2\nseed=3\nworkers=1\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["n_values"] == [101, 211]

    @pytest.mark.parametrize("value, n_values", [("true", [101, 211]), ("yes", [101, 211]),
                                                 ("false", [100, 210]), ("off", [100, 210])])
    def test_config_boolean(self, capsys, tmp_path, value, n_values):
        # a true value is the bare flag, a false one is dropped
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"require_prime={value}\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--n", "100", "210",
                               "--p", "1/2", "--trials", "1", "--workers", "1")
        assert code == 0
        config = json.loads(out)["config"]
        assert config["n_values"] == n_values
        assert config["require_prime"] is (value in ("true", "yes"))

    def test_config_skips_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\n\n  seed=4\n   \n  # trials=9\ntrials=2\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--n", "31",
                               "--p", "1/2", "--workers", "1")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["seed"], config["trials"]) == (4, 2)

    def test_config_line_without_equals_is_a_parameter_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=4\nrequire-prime\n")
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--n", "31", "--p", "1/2") == \
            (1, "", "error: config line is not key=value: 'require-prime'\n")

    def test_config_without_a_path_is_a_parameter_error(self, capsys):
        assert run_cli(capsys, "sweep", "--n", "31", "--p", "1/2", "--config") == \
            (1, "", "error: --config needs a path\n")

    def test_failed_spot_check_exits_2(self, capsys, monkeypatch):
        # main's AssertionError branch: a spot check that fails inside a sweep
        # is an assertion failure, printed without a traceback
        def off_by_one(A, residues):
            sums, diffs = pair_counts_at(A, residues)
            return sums + 1, diffs

        pair_counts_at = experiments._pair_counts_at
        monkeypatch.setattr(experiments, "_pair_counts_at", off_by_one)
        assert run_cli(capsys, "sweep", "--regime", "critical", "--c", "1", "--n", "1009",
                       "--trials", "1", "--workers", "1", "--seed", "1") == \
            (2, "", "assertion failed: sampled pair counts off for sums (n=1009, trial=0)\n")

    def test_failed_spot_check_in_a_worker_exits_2(self, capsys, monkeypatch):
        # the same failure in a forked worker: its AssertionError comes back
        # through the pipe with its type and message
        def off_by_one(A, residues):
            sums, diffs = pair_counts_at(A, residues)
            return sums + 1, diffs

        pair_counts_at = experiments._pair_counts_at
        monkeypatch.setattr(experiments, "_pair_counts_at", off_by_one)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        assert run_cli(capsys, "sweep", "--regime", "critical", "--c", "1", "--n", "1009",
                       "--trials", "2", "--workers", "2", "--seed", "1") == \
            (2, "", "assertion failed: sampled pair counts off for sums (n=1009, trial=0)\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_exits_3(self, capsys, monkeypatch):
        # trial 1 goes to worker 1, which kills itself there: no payload, so a
        # resource limit, and no child outlives the sweep
        parent = os.getpid()

        def dying_trial(n, p, base_seed, trial_index, k_max=0):
            if trial_index == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_trial(n, p, base_seed, trial_index, k_max)

        run_trial = experiments.run_trial
        monkeypatch.setattr(experiments, "run_trial", dying_trial)
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "DRAWS_PER_WORKER", 1)
        code, out, err = run_cli(capsys, "sweep", "--p", "1/2", "--n", "31", "--trials", "4",
                                 "--workers", "2")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: sweep worker 1 was killed by signal "
                              f"{int(signal.SIGKILL)} (")
        assert "Traceback" not in err and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unreadable_config_is_a_parameter_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "absent.cfg"))
        assert code == 1
        assert "cannot read config file" in err

    @pytest.mark.parametrize("error", [OSError(24, "Too many open files"), MemoryError()])
    def test_pool_and_memory_failures_exit_3(self, capsys, monkeypatch, error):
        def failing_sweep(spec):
            raise error

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        code, _, err = run_cli(capsys, "sweep", "--p", "1/2", "--n", "31", "--trials", "2")
        assert code == 3
        assert err.startswith("resource limit: " + type(error).__name__)

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output_fails_before_the_sweep(self, capsys, monkeypatch,
                                                      tmp_path, flag):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", calls.append)
        path = str(tmp_path / "absent" / "x")
        code, _, err = run_cli(capsys, "sweep", "--p", "1/2", "--n", "7",
                               "--trials", "1", flag, path)
        assert code == 3
        assert err.startswith("resource limit: FileNotFoundError")
        assert calls == []

    @pytest.mark.parametrize("failure", ["unwritable report", "failed sweep"])
    def test_failed_run_keeps_an_existing_out(self, capsys, monkeypatch, tmp_path, failure):
        def failing_sweep(spec):
            raise MemoryError()

        out, report = tmp_path / "t.csv", tmp_path / "r.json"
        out.write_text("kept\n")
        if failure == "unwritable report":
            report = tmp_path / "absent" / "r.json"
        else:
            report.write_text("kept\n")
            monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        code, _, _ = run_cli(capsys, "sweep", "--p", "1/2", "--n", "7", "--trials", "1",
                             "--workers", "1", "--out", str(out), "--report", str(report))
        assert code == 3
        assert out.read_text() == "kept\n"
        assert failure == "unwritable report" or report.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_parameter_error_leaves_outputs_untouched(self, capsys, tmp_path, command):
        out, report = tmp_path / "t.csv", tmp_path / "r.json"
        out.write_text("kept\n")
        report.write_text("kept\n")
        argv = [command, "--regime", "critical", "--n", "7", "--out", str(out)]
        if command == "sweep":
            argv += ["--report", str(report)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "critical regime needs c > 0" in err
        assert out.read_text() == report.read_text() == "kept\n"

    def test_repeated_modulus_is_a_parameter_error(self, capsys):
        # 1000 and 1003 both advance to the prime 1009
        assert run_cli(capsys, "sweep", "--p", "1/2", "--n", "1000", "1003",
                       "--require-prime", "--trials", "2") == \
            (1, "", "error: modulus n=1009 appears more than once\n")

    def test_critical_sweep_rows_do_not_depend_on_kmax(self, capsys, tmp_path):
        # a critical sweep, spot-checked on trials 0 and 100:
        # without --kmax the kernels scatter the pairs, with it they read the
        # profile's pair counts, and the trial rows must not differ; the even
        # modulus has the self-mirrored difference n/2
        rows = []
        report = tmp_path / "report.json"
        for extra in ([], ["--kmax", "5", "--report", str(report)]):
            out = tmp_path / f"trials{len(extra)}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--regime", "critical", "--c", "1",
                                 "--n", "1009", "1024", "--trials", "101", "--workers", "2",
                                 "--out", str(out), *extra)
            assert code == 0
            rows.append([line for line in out.read_text().splitlines()
                         if not line.startswith("#")])
        assert len(rows[0]) == 1 + 2 * 101
        assert rows[0] == rows[1]
        # the trial rows carry no x_k/y_k: check the report's means against a
        # recount of every trial's pair multiplicities by brute force
        data = json.loads(report.read_text())
        seed = data["config"]["seed"]
        for agg in data["aggregates"]:
            n = agg["n"]
            p = Fraction(data["config"]["p"][str(n)])
            xk, yk = [], []
            for t in range(101):
                idx = sample_subset(SampleSpec(n=n, p=p, base_seed=seed, trial_index=t)).indices()
                upper = np.triu_indices(idx.size)  # unordered sums, a = b allowed
                m_sum = np.bincount(np.add.outer(idx, idx)[upper] % n, minlength=n)
                m_diff = np.bincount(np.subtract.outer(idx, idx).ravel() % n, minlength=n)
                xk.append([_k_sets_sharing_a_value(m_sum, k) for k in range(1, 6)])
                yk.append([_k_sets_sharing_a_value(m_diff, k) for k in range(1, 6)])
            assert agg["mean_xk"] == [float(Fraction(sum(col), 101)) for col in zip(*xk)]
            assert agg["mean_yk"] == [float(Fraction(sum(col), 101)) for col in zip(*yk)]


def _k_sets_sharing_a_value(mult, k):
    """sum over residues r of C(mult[r], k)."""
    values, counts = np.unique(mult, return_counts=True)
    return sum(int(c) * math.comb(int(v), k) for v, c in zip(values, counts))


def _python_env():
    """The environment of a fresh interpreter on the package in src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*args):
    """Run a fresh interpreter on the package in src/."""
    return subprocess.run([sys.executable, *args], env=_python_env(), capture_output=True,
                          text=True, timeout=120)


class TestProcess:
    def test_python_dash_m_runs_the_cli(self, capsys):
        proc = _python("-m", "modsetlab", "exact", "lucas", "--n", "10")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(capsys, "exact", "lucas", "--n", "10")[1]

    def test_closed_stdout_exits_0_quietly(self):
        # a reader that stops at once, as `| head` may, is not a resource limit;
        # with stdout block-buffered, the output must not fail at exit either
        env = _python_env()
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen([sys.executable, "-m", "modsetlab", "exact", "lucas", "--n", "10"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            assert (proc.wait(timeout=120), proc.stderr.read()) == (0, b"")

    def test_import_graph_of_the_cli(self):
        # Sweep workers are forked from the process that imported the CLI, so
        # what it loads, they start with.  numpy loads numpy.random and
        # numpy.fft on first use: numpy.random cost each forked worker 17-27 ms
        # on its first trial (1.2-1.4 ms once loaded), and numpy.fft 4-5 ms on
        # its first dense spot check.  concurrent.futures.process, which brings
        # in multiprocessing, cost every process 15-23 ms and about 2 MB at
        # import, and a two-worker executor 10-12 ms per sweep against
        # 1.6-1.9 ms for a bare fork and waitpid.
        proc = _python("-c", "import sys, modsetlab.cli; print(*(m in sys.modules for m in "
                             "('numpy.random', 'numpy.fft', 'concurrent.futures.process', "
                             "'multiprocessing')))")
        assert (proc.returncode, proc.stdout) == (0, "True True False False\n"), proc.stderr

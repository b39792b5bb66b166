"""End-to-end CLI behavior: outputs, determinism, config file, exit codes."""

import json
import random
import sys
from concurrent.futures.process import BrokenProcessPool
from decimal import Decimal
from fractions import Fraction

import pytest

from modsetlab import cli
from modsetlab import exact


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "error" in err


class TestExact:
    def get_json(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out)

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

    def test_edc_carries_bound(self, capsys):
        data = self.get_json(capsys, "exact", "EDc", "--n", "5", "--p", "1/2")
        assert (data["numerator"], data["denominator"]) == ("5", "4")
        assert data["bound_2nF"] == "5/2"

    def test_gauges(self, capsys):
        data = self.get_json(capsys, "exact", "gauges", "--n", "10007", "--p", "0.1")
        assert data["log_G"] < 0

    def test_targets(self, capsys):
        data = self.get_json(capsys, "exact", "targets", "--regime", "critical",
                             "--n", "10007", "--c", "1")
        assert data["ratio_target"] == pytest.approx(1.6065306597)

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

    def test_diff_missing_composite_not_asserted(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "6", "--p", "1/2",
                               "--event", "diff-missing", "--k", "2")
        assert code == 0  # deviation reported, not asserted
        comp = json.loads(out)["comparisons"][0]
        assert comp["asserted"] is False
        assert comp["equal"] is False
        assert comp["delta"] != "0"

    def test_moments(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "7", "--p", "1/2", "--moments")
        assert code == 0
        data = json.loads(out)
        assert data["moments"]["E_Sc"] == "189/128"
        assert all(c["equal"] for c in data["comparisons"])

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "23", "--p", "1/2",
                               "--event", "diff-missing", "--k", "1")
        assert code == 3
        assert "resource" in err

    def test_assertion_exit_code(self, capsys, monkeypatch):
        # force a closed-form mismatch to exercise the asserted-failure path
        monkeypatch.setattr(exact, "prob_diff_missing",
                            lambda n, p: Fraction(1, 3))
        code, out, _ = run_cli(capsys, "oracle", "--n", "5", "--p", "1/2",
                               "--event", "diff-missing", "--k", "1")
        assert code == 2
        assert json.loads(out)["comparisons"][0]["equal"] is False


class TestGraphs:
    def test_sum_graph_text(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "7", "--mode", "sum",
                               "--i", "2", "--j", "5")
        assert code == 0
        assert "path_with_end_loops" in out and "[1, 6]" in out

    def test_diff_graph_prime(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "7", "--mode", "diff", "--k", "2")
        assert code == 0 and "single_cycle" in out

    def test_diff_graph_composite(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "6", "--mode", "diff", "--k", "2")
        assert code == 0 and "disjoint_cycles" in out and "2 cycle(s) of length 3" in out

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "5", "--mode", "diff",
                               "--k", "1", "--dot")
        assert code == 0
        assert out.startswith("graph modset {") and "--" in out


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

    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime=fixed\np=1/2\nn=31\ntrials=6\nseed=8\nworkers=1\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--trials", "2")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["trials"] == 2      # flag wins
        assert report["config"]["n_values"] == [31]  # from config file

    def test_unreadable_config_is_a_parameter_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "absent.cfg"))
        assert code == 1
        assert "cannot read config file" in err

    @pytest.mark.parametrize("error", [BrokenProcessPool("a worker died"),
                                       OSError(24, "Too many open files"),
                                       MemoryError()])
    def test_pool_and_memory_failures_exit_3(self, capsys, monkeypatch, error):
        def failing_sweep(spec):
            raise error

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        code, _, err = run_cli(capsys, "sweep", "--p", "1/2", "--n", "31", "--trials", "2")
        assert code == 3
        assert err.startswith("resource limit: " + type(error).__name__)

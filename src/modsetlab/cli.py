"""Command-line interface.

Subcommands: sample, exact, oracle, sweep, graphs.  Every run resolves its
configuration (rational p, prime-certified moduli, seed) and logs it in the
output header.  Exit codes: 0 success, 1 parameter error, 2 assertion or
acceptance failure, 3 resource limit.

A key=value config file (--config) supplies defaults; explicit flags win.
The default seed comes from the MODSETLAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
import decimal
from decimal import Decimal
from fractions import Fraction

from . import exact, experiments, graphs
from .errors import ParameterError, ResourceLimitError
from .experiments import (RegimeSpec, is_prime, next_prime, realized_p, run_sweep,
                          usable_cpus)

EXIT_OK = 0
EXIT_PARAMETER = 1
EXIT_ASSERTION = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we reserve 2 for assertions
        raise ParameterError(message)


def _fraction(text: str) -> Fraction:
    # argparse shows the text of an ArgumentTypeError; any other ValueError,
    # ParameterError included, it replaces by "invalid _fraction value"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"cannot parse probability {text!r}: {e}") from e


def _default_seed() -> int:
    text = os.environ.get("MODSETLAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"MODSETLAB_SEED must be an integer, got {text!r}") from None


_DIGITS_LEAF_BITS = 1 << 12  # below this, Decimal(int) is faster than splitting


def _digits(x: int) -> str:
    """All decimal digits of x.

    str(int) refuses more than sys.get_int_max_str_digits() digits, a guard
    that also protects int(str) parsing of input, so it stays in place;
    Decimal is exempt from it.  Decimal(int) is quadratic in the length,
    so long x is split in halves at powers of two and rebuilt with exact
    Decimal multiplications, which libmpdec does in subquadratic time.
    """
    if x < 0:
        return "-" + _digits(-x)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        pow2: list[Decimal] = []  # pow2[j] = 2^(LEAF 2^j), each the square of the last
        while x >> (_DIGITS_LEAF_BITS << len(pow2)):
            pow2.append(pow2[-1] * pow2[-1] if pow2 else Decimal(1 << _DIGITS_LEAF_BITS))
        return str(_to_decimal(x, pow2, len(pow2)))


def _to_decimal(x: int, pow2: list[Decimal], j: int) -> Decimal:
    """Decimal(x) for 0 <= x < 2^(LEAF 2^j), in an exact context."""
    if j == 0:
        return Decimal(x)
    h = _DIGITS_LEAF_BITS << (j - 1)
    hi = x >> h
    return _to_decimal(hi, pow2, j - 1) * pow2[j - 1] + _to_decimal(x - (hi << h), pow2, j - 1)


def _rational(value: int | Fraction) -> dict:
    """Every digit of a rational, and its float value or None beyond float range."""
    value = Fraction(value)
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {"numerator": _digits(value.numerator),
            "denominator": _digits(value.denominator), "value": approx}


def _frac_str(x: Fraction) -> str:
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def build_parser() -> _Parser:
    # no abbreviations at the top level: --c is the sampling flag, never --config
    parser = _Parser(prog="modsetlab", allow_abbrev=False,
                     description="sumset/difference-set experiments on random subsets of Z/nZ")
    parser.add_argument("--config", help="key=value file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_sampling(sp):
        sp.add_argument("--p", type=_fraction, help="probability as NUM/DEN or decimal")
        sp.add_argument("--regime", choices=experiments.REGIMES)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--trials", type=int, default=100)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None,
                        help="worker processes, at most the usable CPUs "
                             "(default: the usable CPUs)")
        sp.add_argument("--require-prime", action="store_true",
                        help="advance each n to the next prime and certify it")
        sp.add_argument("--out", help="CSV output path (default: stdout)")

    sp = sub.add_parser("sample", help="sample trials at a single modulus")
    sp.add_argument("--n", type=int, required=True)
    add_common_sampling(sp)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep over moduli with a report")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    add_common_sampling(sp)
    sp.add_argument("--kmax", type=int, nargs="?", const=5, default=0,
                    help="report the means of x_k/y_k up to this k (bare flag: 5; absent: off)")
    sp.add_argument("--report", help="JSON report path (default: stdout)")

    sp = sub.add_parser("exact", help="evaluate one closed form exactly")
    sp.add_argument("formula", choices=_EXACT)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=_fraction)
    sp.add_argument("--k", type=int)
    sp.add_argument("--regime", choices=("fast", "critical", "slow"))
    sp.add_argument("--delta", type=float)
    sp.add_argument("--c", type=float)

    sp = sub.add_parser("oracle", help="compare closed forms against 2^n enumeration")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=_fraction, required=True)
    what = sp.add_mutually_exclusive_group()
    what.add_argument("--event", choices=_EVENTS)
    what.add_argument("--moments", action="store_true")
    sp.add_argument("--k", type=int)
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--include-empty", action="store_true",
                    help="include A = empty set in the event probability")

    sp = sub.add_parser("graphs", help="build a pair graph and list its components")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=("sum", "diff"), required=True)
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of plain text")

    return parser


def _load_config_argv(argv: list[str]) -> list[str]:
    """Turn a --config file (--config PATH or --config=PATH) into leading flags
    so explicit flags override them."""
    at = next((i for i, arg in enumerate(argv)
               if arg == "--config" or arg.startswith("--config=")), None)
    if at is None:
        return argv
    _, inline, path = argv[at].partition("=")
    if not inline:
        if at + 1 >= len(argv):
            raise ParameterError("--config needs a path")
        path = argv[at + 1]
    extra: list[str] = []
    try:
        fh = open(path)
    except OSError as e:
        raise ParameterError(f"cannot read config file {path!r}: {e}") from e
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"config line is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            flag = f"--{key}"
            if value.lower() in ("true", "yes", "on"):
                extra.append(flag)
            elif value.lower() in ("false", "no", "off"):
                continue
            elif key == "n":  # the one flag that takes several values
                extra.extend([flag] + value.split())
            else:  # one token, so a value may hold spaces or start with "-"
                extra.append(f"{flag}={value}")
    rest = argv[:at] + argv[at + (1 if inline else 2):]
    # subcommand must stay first; config flags go right after it so that
    # explicitly passed flags (later in argv) take precedence
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + extra + rest[1:]
    return extra + rest


def _build_regime_spec(args, n_values: list[int], k_max: int = 0) -> tuple[RegimeSpec, dict]:
    seed = args.seed if args.seed is not None else _default_seed()
    workers = args.workers if args.workers is not None else usable_cpus()
    if args.require_prime:
        n_values = [next_prime(n) for n in n_values]
    regime = args.regime or "fixed"
    if regime == "fixed" and args.p is None:
        raise ParameterError("fixed regime needs --p" if args.regime
                             else "need either --p or --regime")
    p_fixed = args.p if regime == "fixed" else None
    spec = RegimeSpec(
        regime=regime, n_values=tuple(n_values), trials=args.trials, base_seed=seed,
        delta=args.delta, c=args.c, gamma=args.gamma, p_fixed=p_fixed,
        require_prime=args.require_prime, k_max=k_max, workers=workers,
    )
    config = {
        "command": args.command,
        "regime": spec.regime,
        "n_values": list(spec.n_values),
        "p": {str(n): _frac_str(realized_p(spec, n)) for n in spec.n_values},
        "trials": spec.trials,
        "seed": spec.base_seed,
        "workers": spec.workers,
        "k_max": spec.k_max,
        "require_prime": spec.require_prime,
        "prime_certified": {str(n): is_prime(n) for n in spec.n_values},
        "delta": spec.delta, "c": spec.c, "gamma": spec.gamma,
        "schema": experiments.SCHEMA_VERSION,
    }
    return spec, config


def _check_writable(*paths: str | None) -> None:
    """Fail on an unwritable output before the sweep, emptying no file."""
    for path in paths:
        if path:
            open(path, "a").close()


def _open_out(path: str | None):
    """Open an output file for writing, or pass stdout through (left open).

    The commands open (and empty) their outputs after the sweep, so a failed
    run leaves an existing file as it was.
    """
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def cmd_sample(args) -> int:
    spec, config = _build_regime_spec(args, [args.n])
    _check_writable(args.out)
    result = run_sweep(spec)
    with _open_out(args.out) as out:
        experiments.write_trials_csv(result.records, out, config)
    agg = result.aggregates[0]
    print(f"n={agg.n} trials={agg.trials} mean|A|={agg.mean_card:.2f} "
          f"mean S={agg.mean_S:.2f} mean D={agg.mean_D:.2f} "
          f"mean ratio={agg.mean_ratio if agg.mean_ratio is None else round(agg.mean_ratio, 6)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec, config = _build_regime_spec(args, list(args.n), args.kmax)
    _check_writable(args.out, args.report)
    result = run_sweep(spec)
    with _open_out(args.out) as out, _open_out(args.report) as report_out:
        if args.out:
            experiments.write_trials_csv(result.records, out, config)
        report = experiments.report_as_dict(result, spec, config)
        print(json.dumps(report, indent=2), file=report_out)
    return EXIT_OK


def _need(args, what: str, *flags) -> None:
    missing = [f"--{x}" for x in flags if getattr(args, x) is None]
    if missing:
        raise ParameterError(f"{what} needs {', '.join(missing)}")


def _n_p(a) -> dict:
    return {"n": a.n, "p": _frac_str(a.p)}


def _with_bound(rec: exact.MissingDiffExpectation) -> dict:
    bound = None if rec.bound is None else _frac_str(rec.bound)  # None at composite n
    return {**_rational(rec.value), "bound_2nF": bound}


# formula -> (required flags, its params, its result fields), each from the args
_EXACT = {
    "path": (("n", "k"), lambda a: {"m": a.n, "r": a.k},
             lambda a: _rational(exact.path_count(a.n, a.k))),
    "cycle": (("n", "k"), lambda a: {"n": a.n, "k": a.k},
              lambda a: _rational(exact.cycle_count(a.n, a.k))),
    "lucas": (("n",), lambda a: {"n": a.n}, lambda a: _rational(exact.lucas(a.n))),
    "F": (("n", "p"), _n_p, lambda a: _rational(exact.f_series(a.n, a.p))),
    "ESc": (("n", "p"), _n_p, lambda a: {
        **_rational(exact.expected_missing_sums(a.n, a.p)),
        "asymptotic_form": _frac_str(exact.expected_missing_sums_asymptotic(a.n, a.p))}),
    "PdiffMissing": (("n", "p"), _n_p,
                     lambda a: _rational(exact.prob_diff_missing(a.n, a.p))),
    "PdiffComposite": (("n", "k", "p"), lambda a: {"n": a.n, "k": a.k, "p": _frac_str(a.p)},
                       lambda a: _rational(exact.prob_diff_missing_composite(a.n, a.k, a.p))),
    "PbothSums": (("n", "p"), _n_p,
                  lambda a: _rational(exact.prob_both_sums_missing(a.n, a.p))),
    "EDc": (("n", "p"), _n_p, lambda a: _with_bound(exact.expected_missing_diffs(a.n, a.p))),
    "gauges": (("n", "p"), _n_p, lambda a: asdict(exact.gauge_functions(a.n, a.p))),
    "targets": (("n", "regime"),
                lambda a: {"n": a.n, "regime": a.regime, "c": a.c, "delta": a.delta},
                lambda a: asdict(exact.theoretical_targets(a.regime, a.n, c=a.c,
                                                           delta=a.delta))),
}


def cmd_exact(args) -> int:
    flags, params, result = _EXACT[args.formula]
    _need(args, f"formula {args.formula!r}", *flags)
    # strict JSON has no Infinity or NaN: beyond float range prints null, like "value"
    fields = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in result(args).items()}
    print(json.dumps({"formula": args.formula, "params": params(args), **fields},
                     indent=2))
    return EXIT_OK


def _comparison(name: str, oracle_value: Fraction, closed: Fraction) -> dict:
    return {
        "comparison": name,
        "oracle": _frac_str(oracle_value),
        "closed_form": _frac_str(closed),
        "equal": oracle_value == closed,
        "delta": _frac_str(oracle_value - closed),
        "asserted": True,
    }


# event -> (required flags, comparison name, its predicate, its pair graph), the
# last two called with the flags' values.  The oracle runs first, since it caps
# n before an O(n) graph is built; the graph then rejects a target that defines
# no event.  The closed form is the graph's independence probability, asserted
# at every n.
_EVENTS = {
    "diff-missing": (("k",), "P(k not in A-A)", graphs.event_diff_missing,
                     graphs.build_diff_graph),
    "sum-missing": (("i",), "P(i not in A+A)", graphs.event_sums_missing,
                    graphs.build_sum_graph),
    "both-sums-missing": (("i", "j"), "P(i,j not in A+A)", graphs.event_sums_missing,
                          graphs.build_sum_graph),
}


def cmd_oracle(args) -> int:
    n, p = args.n, args.p
    q = 1 - p
    if args.moments:
        mom = graphs.oracle_moments(n, p)
        # the empty set misses all n differences, and only it misses 0
        closed_dc = exact.expected_missing_diffs(n, p).value + n * q ** n
        comparisons = [_comparison("E_Sc", mom.E_Sc, exact.expected_missing_sums(n, p)),
                       _comparison("E_Dc", mom.E_Dc, closed_dc)]
        out = {"n": n, "p": _frac_str(p),
               "moments": {k: _frac_str(v) for k, v in asdict(mom).items()},
               "comparisons": comparisons}
    elif args.event:
        flags, name, event, graph = _EVENTS[args.event]
        _need(args, args.event, *flags)
        targets = [getattr(args, flag) for flag in flags]
        include_empty = bool(args.include_empty)
        value = graphs.oracle_event_probability(n, p, event(*targets),
                                                include_empty_set=include_empty)
        closed = exact.independence_probability(graph(n, *targets).components, p)
        if not include_empty:
            closed -= q ** n  # A = empty misses every target
        comparisons = [_comparison(name, value, closed)]
        out = {"n": n, "p": _frac_str(p), "event": args.event,
               "include_empty_set": include_empty,
               "oracle": _frac_str(value), "comparisons": comparisons}
    else:
        raise ParameterError("oracle needs --moments or --event")
    print(json.dumps(out, indent=2))
    return EXIT_OK if all(c["equal"] for c in comparisons) else EXIT_ASSERTION


def cmd_graphs(args) -> int:
    if args.mode == "sum":
        _need(args, "sum mode", "i", "j")
        g = graphs.build_sum_graph(args.n, args.i, args.j)
        title = f"sum graph n={args.n} targets=({args.i},{args.j})"
    else:
        _need(args, "diff mode", "k")
        g = graphs.build_diff_graph(args.n, args.k)
        title = f"difference graph n={args.n} k={args.k}"
    components = list(g.components)  # (kind, vertices, end loops, count) entries
    if args.dot:
        lines = [f"graph modset {{  // {title}; components={components}"]
        lines += [f"  {a} -- {b};" for a, b in g.edges]
        lines.append("}")
        print("\n".join(lines))
    else:
        print(title)
        print(f"components: {components}")
        print(f"edges: {list(g.edges)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _load_config_argv(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        handler = {"sample": cmd_sample, "sweep": cmd_sweep, "exact": cmd_exact,
                   "oracle": cmd_oracle, "graphs": cmd_graphs}[args.command]
        status = handler(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return status
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAMETER
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except BrokenPipeError:
        # the reader stopped early (`| head`): what is left goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, MemoryError) as e:
        print(f"resource limit: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

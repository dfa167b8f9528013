"""Command-line front end, and the only module that renders output.

Subcommands: ``stats``, ``verify``, ``mae``, ``r2``, ``predict``,
``evaluate``. Every data command writes through ``_write``: a JSON object,
or CSV records under a header of their keys. Exit codes are a stable
contract: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

# league, predictor and regression are imported by the commands that use
# them, so that each command loads only what it runs
from . import STRATEGIES, STRATEGY_RANK, permstats
from .textfile import overlong_integer_digits, read_text

if TYPE_CHECKING:
    from . import predictor, regression

TABLE_FIELDS = ("position", "team")


@contextlib.contextmanager
def _out(path: str | None) -> Iterator[IO[str]]:
    """stdout, or ``path`` opened for writing; an error writing or closing
    ``path`` names it, as one opening it does."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None


def _write(args: argparse.Namespace, obj, records: list[dict]) -> None:
    """Write ``obj`` as JSON, or ``records`` as CSV with their keys as the
    header, to ``--output`` or stdout. ``csv`` writes a float as its
    ``repr`` and None as an empty cell."""
    with _out(args.output) as fh:
        if args.format == "json":
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        else:
            # under a \r\n terminator csv quotes a cell holding \r or \n; rows then end in \n
            rows = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
            writer = csv.writer(rows, lineterminator="\r\n")
            writer.writerow(records[0].keys())
            writer.writerows(record.values() for record in records)


def _exact(value: Fraction) -> dict:
    return {"exact": str(value), "decimal": float(value)}


def report_records(report: predictor.ForecastReport) -> list[dict]:
    return [
        {
            "season": report.season,
            "round": rec.round,
            "strategy": rec.strategy,
            "mae": float(rec.mae),
            "mse": float(rec.mse),
        }
        for rec in report.records
    ]


def report_summary(report: predictor.ForecastReport) -> dict:
    """The JSON summary object: baseline stats plus threshold/crossover info."""
    return {
        "season": report.season,
        "n": report.n,
        "baseline_expected_mae": _exact(report.baseline_expected_mae),
        "baseline_fraction": report.baseline_fraction,
        "threshold_rounds": dict(report.threshold_rounds),
        "gd_better_rounds": list(report.gd_better_rounds),
    }


def curve_records(curves: Iterable[regression.R2Curve]) -> list[dict]:
    return [
        {"season": c.season, "kind": c.kind, "round": rnd, "r_squared": value}
        for c in curves
        for rnd, value in c.points
    ]


def read_table_file(path: str | Path) -> list[str]:
    """Read a table file, JSON if its first non-blank character is ``[`` or
    ``{`` and CSV ``position,team`` otherwise, into its stripped team names in
    table order. Errors name the file, and the line or position if any."""
    try:
        return _table_teams(read_text(path))
    # json raises RecursionError on deeply nested arrays
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _table_teams(text: str) -> list[str]:
    """The one set of rules for both formats, in the order they are checked;
    a position or a team is refused where it first breaks one."""
    entries = []
    for where, position, name in _table_entries(text):
        if not (team := name.strip()):
            raise ValueError(f"{where}: team must not be blank")
        entries.append((where, position, team))
    size = len(entries)
    placed: dict[int, str] = {}
    for where, position, _ in entries:
        if position not in range(1, size + 1):
            raise ValueError(f"{where}: position must be in 1..{size}, got {position}")
        if position in placed:
            raise ValueError(f"{where}: position {position} is also on {placed[position]}")
        placed[position] = where
    named: dict[str, str] = {}
    for where, _, team in entries:
        if team in named:
            raise ValueError(f"{where}: team {team!r} is also on {named[team]}")
        named[team] = where
    if size < 2:
        raise ValueError("need at least 2 teams")
    return [team for _, team in sorted((position, team) for _, position, team in entries)]


def _table_entries(text: str) -> Iterator[tuple[str, int | str, str]]:
    """``(where, position, name)`` per team; CSV rows one by one, so the first
    fault wins. A position of more digits than ``int()`` reads is out of every
    table's range; it is handed on as the text ``'<k> digits'``, which no
    range holds."""
    if text.lstrip().startswith(("[", "{")):
        teams = json.loads(text)
        if not isinstance(teams, list) or not all(isinstance(t, str) for t in teams):
            raise ValueError("JSON table must be an array of team names")
        yield from ((f"position {k}", k, team) for k, team in enumerate(teams, start=1))
        return
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty table file")
        if tuple(h.strip() for h in header) != TABLE_FIELDS:
            raise ValueError("expected header position,team")
        for row in filter(None, reader):
            where = f"line {reader.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: malformed row {row!r}")
            try:
                position = int(row[0])
            except ValueError:
                if not (digits := overlong_integer_digits(row[0])):
                    raise ValueError(
                        f"{where}: position must be an integer, got {row[0]!r}"
                    ) from None
                position = f"{digits} digits"
            yield where, position, row[1]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def _cmd_stats(args: argparse.Namespace) -> int:
    permstats.check_sizes(args.n, n_name="--n")
    # ScoreStats's fields, in the printed order
    stats = vars(permstats.score_stats(args.n))
    obj = {
        name: _exact(value) if isinstance(value, Fraction) else value
        for name, value in stats.items()
    }
    records = []
    for name, value in obj.items():
        if not isinstance(value, dict):
            # an int, or a bool spelled as in JSON, fills both columns
            value = dict.fromkeys(("exact", "decimal"), json.dumps(value))
        records.append({"field": name, **value})
    _write(args, obj, records)
    return 0


_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _exact_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text.strip())
    if not m:
        raise ValueError(f"--exact must look like 4 or 2..8, got {text!r}")
    # Decimal reads a bound of any length; int() refuses more than 4300 digits by default
    lo, hi = (int(Decimal(bound)) for bound in (m[1], m[2] or m[1]))
    if lo > hi:
        raise ValueError(f"--exact must not be an empty range, got {text!r}")
    for bound in (lo, hi):
        permstats.check_enumerable(bound, "--exact")
    return lo, hi


def _verify_exact(lo: int, hi: int) -> Iterator[tuple[bool, str]]:
    """One (passed, line) per closed form and league size."""
    for n in range(lo, hi + 1):
        dist = permstats.brute_force_distribution(n)
        mean, variance, top, top_count = permstats.distribution_moments(dist)
        stats = permstats.score_stats(n)
        for name, got, want in (
            ("expected_score", mean, stats.expected_score),
            ("variance_score", variance, stats.variance_score),
            ("max_score", top, stats.max_score),
            ("worst_count", top_count, stats.worst_count),
        ):
            if got == want:
                yield True, f"n={n} {name}: PASS"
            else:
                yield False, f"n={n} {name}: FAIL (enumerated {got}, closed form {want})"


def _verify_mc(n: int, samples: int, seed: int) -> tuple[bool, str]:
    stats = permstats.score_stats(n)
    summary = permstats.monte_carlo_mae(n, samples, seed)
    tolerance = 3.0 * math.sqrt(float(stats.variance_mae) / samples)
    passed = abs(float(summary.mean) - float(stats.expected_mae)) <= tolerance
    line = (
        f"n={n} mc_mean_mae: {'PASS' if passed else 'FAIL'} "
        f"(sample {float(summary.mean):.6f}, "
        f"expected {float(stats.expected_mae):.6f}, tolerance {tolerance:.6f}, "
        f"samples {samples}, seed {seed})"
    )
    return passed, line


def _cmd_verify(args: argparse.Namespace) -> int:
    exact = None if args.exact is None else _exact_range(args.exact)
    permstats.check_sizes(args.n, args.samples, "--n", "--samples")
    permstats.check_seed(args.seed, "--seed")
    flags = {"--n": args.n, "--samples": args.samples, "--seed": args.seed}
    given = [flag for flag, value in flags.items() if value is not None]
    missing = [flag for flag in flags if flag not in given]
    if exact is None and not given:
        raise ValueError("choose --exact RANGE and/or --n N --samples S --seed SEED")
    if given and missing:
        raise ValueError(f"{' and '.join(missing)} must be given with {' and '.join(given)}")
    verdicts = [] if exact is None else list(_verify_exact(*exact))
    if given:
        verdicts.append(_verify_mc(args.n, args.samples, args.seed))
    for _, line in verdicts:
        print(line)
    return 0 if all(passed for passed, _ in verdicts) else 1


def _cmd_mae(args: argparse.Namespace) -> int:
    actual_order = read_table_file(args.actual)
    predicted_order = read_table_file(args.pred)
    try:
        ranking = permstats.ranking_from_orders(actual_order, predicted_order)
    except ValueError as exc:
        raise ValueError(f"--actual {args.actual}, --pred {args.pred}: {exc}") from None
    payload = {
        "footrule": permstats.footrule_score(ranking),
        "mae": float(permstats.mae(ranking)),
        "mse": float(permstats.mse(ranking)),
    }
    _write(args, payload, [payload])
    return 0


def _cmd_r2(args: argparse.Namespace) -> int:
    from . import league, regression

    if args.threshold is not None:
        regression.check_threshold(args.threshold, "--threshold")
    dataset = league.parse_matches(args.matches)
    try:
        curves = [regression.r2_curve(dataset, kind) for kind in regression.CURVE_KINDS]
    except ValueError as exc:
        raise ValueError(f"{args.matches}: {exc}") from None
    records = curve_records(curves)
    obj: dict = {"records": records}
    if args.threshold is not None:
        obj["threshold"] = args.threshold
        obj["threshold_rounds"] = {
            curve.kind: regression.threshold_round(curve, args.threshold)
            for curve in curves
        }
    _write(args, obj, records)
    if args.threshold is not None and args.format == "csv":
        for kind, rnd in obj["threshold_rounds"].items():
            if rnd is None:
                line = f"{kind}: never reaches {args.threshold}"
            else:
                line = f"{kind}: reaches {args.threshold} at round {rnd}"
            print(line, file=sys.stderr)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from . import league, predictor

    dataset = league.parse_matches(args.matches)
    rnd = dataset.rounds if args.round is None else args.round
    if not 1 <= rnd <= dataset.rounds:
        raise ValueError(f"{args.matches}: --round must be within 1..{dataset.rounds}, got {rnd}")
    table = league.standings_at_round(dataset, rnd)
    if args.strategy == predictor.STRATEGY_GD:
        order = predictor.predicted_order_by_gd(table)
    else:
        order = predictor.predicted_order_by_rank(table)
    records = [dict(zip(TABLE_FIELDS, entry)) for entry in enumerate(order, start=1)]
    _write(args, list(order), records)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from . import league, predictor

    predictor.check_baseline_fraction(args.baseline_fraction, "--baseline-fraction")
    dataset = league.parse_matches(args.matches)
    report = predictor.evaluate_season(
        dataset, baseline_fraction=args.baseline_fraction
    )
    records = report_records(report)
    summary = report_summary(report)
    _write(args, {"records": records, "summary": summary}, records)
    if args.summary is not None:
        _write(argparse.Namespace(output=args.summary, format="json"), summary, [])
    return 0


def build_parser() -> argparse.ArgumentParser:
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output encoding"
    )
    output_flags.add_argument(
        "--output", metavar="PATH", help="write output here instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="tableguess",
        description="Score table predictions and build parsimonious forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "stats", parents=[output_flags], help="exact random-guess statistics for a league of size n"
    )
    p.add_argument("--n", type=int, required=True, help="league size")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "verify", help="check the closed forms against enumeration and Monte Carlo"
    )
    p.add_argument("--exact", metavar="RANGE", help="league sizes to enumerate, e.g. 2..8")
    p.add_argument(
        "--n", type=int, help="league size of the Monte Carlo check, run with --samples and --seed"
    )
    p.add_argument("--samples", type=int, help="sample count of the Monte Carlo check")
    p.add_argument("--seed", type=int, help="seed of the Monte Carlo check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "mae", parents=[output_flags], help="score a predicted table against the actual one"
    )
    p.add_argument("--pred", required=True, metavar="PATH", help="predicted table file")
    p.add_argument("--actual", required=True, metavar="PATH", help="actual table file")
    p.set_defaults(func=_cmd_mae)

    p = sub.add_parser(
        "r2", parents=[output_flags], help="per-round explanatory-power curves from match data"
    )
    p.add_argument("matches", help="match CSV file")
    p.add_argument("--threshold", type=float, help="also report when each curve reaches this")
    p.set_defaults(func=_cmd_r2)

    p = sub.add_parser(
        "predict", parents=[output_flags], help="predicted final table from a given round"
    )
    p.add_argument("matches", help="match CSV file")
    p.add_argument("--round", type=int, help="round to predict from (default: last)")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_RANK)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "evaluate", parents=[output_flags], help="score both strategies at every round"
    )
    p.add_argument("matches", help="match CSV file")
    p.add_argument(
        "--baseline-fraction",
        type=float,
        default=0.5,
        help="threshold as a fraction of the random-guess MAE (default 0.5)",
    )
    p.add_argument("--summary", metavar="PATH", help="also write the JSON summary here")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

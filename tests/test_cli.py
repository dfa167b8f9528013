import csv
import io
import itertools
import json
from pathlib import Path

import pytest

from tableguess import league, permstats
from tableguess.cli import main, read_table_file
from tableguess.permstats import MC_MAX_WORK, ORACLE_MAX_N, STATS_MAX_N
from conftest import FLAT_SEASON_CSV, DRAWISH_SEASON_CSV, curve_rows, report_rows, transcripts

MC_FLAGS = {"--n": "20", "--samples": "10", "--seed": "1"}


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def flat_file(tmp_path) -> str:
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_SEASON_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def drawish_file(tmp_path) -> str:
    path = tmp_path / "drawish.csv"
    path.write_text(DRAWISH_SEASON_CSV, encoding="utf-8")
    return str(path)


class TestStats:
    def test_csv_contains_the_exact_constants(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "20")
        assert code == 0
        rows = {r["field"]: r for r in csv.DictReader(io.StringIO(out))}
        assert rows["expected_mae"]["exact"] == "133/20"
        assert rows["expected_mae"]["decimal"] == "6.65"
        assert rows["worst_probability"]["exact"] == "1/184756"
        assert rows["correct_probability"]["exact"] == "1/2432902008176640000"
        assert rows["max_mae"]["exact"] == "10"

    def test_small_league(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "2")
        rows = {r["field"]: r for r in csv.DictReader(io.StringIO(out))}
        assert code == 0
        assert rows["expected_mae"]["exact"] == "1/2"
        assert rows["expected_mae"]["decimal"] == "0.5"

    def test_json_and_csv_encode_identical_data(self, capsys):
        code, out_json, _ = run(capsys, "stats", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out_json)
        code, out_csv, _ = run(capsys, "stats", "--n", "6")
        assert code == 0
        rows = {r["field"]: r for r in csv.DictReader(io.StringIO(out_csv))}
        for field, value in payload.items():
            if isinstance(value, dict):
                assert rows[field]["exact"] == value["exact"]
                assert float(rows[field]["decimal"]) == value["decimal"]

    def test_rejects_singleton_league(self, capsys):
        code, _, err = run(capsys, "stats", "--n", "1")
        assert code == 2
        assert "error" in err

    def test_rejects_n_above_the_limit(self, capsys):
        code, out, err = run(capsys, "stats", "--n", "2000")
        assert code == 2
        assert out == ""
        assert "--n must be at most 1000" in err

    def test_largest_allowed_n_prints_exact_values(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["correct_probability"]["exact"].startswith("1/402387260077")

    def test_odd_league_is_flagged_generalized(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["generalized"] is True
        assert payload["worst_count"] == 252

    def test_odd_league_enumerates_nothing(self, capsys, enumerated_sizes):
        code, out, _ = run(capsys, "stats", "--n", "9")
        assert code == 0
        assert "worst_count,5184,5184" in out
        assert enumerated_sizes == []

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "stats.csv"
        code, out, _ = run(capsys, "stats", "--n", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        assert "expected_mae" in target.read_text()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_failed_write_names_the_output_file(self, capsys):
        code, out, err = run(capsys, "stats", "--n", "4", "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 28] No space left on device: '/dev/full'\n"

    def test_a_failed_open_keeps_its_message(self, capsys, tmp_path):
        target = tmp_path / "missing" / "stats.csv"
        code, _, err = run(capsys, "stats", "--n", "4", "--output", str(target))
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestVerify:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fail the test if verify starts a closed form, an enumeration or a sampler run."""
        from tableguess import cli

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        for name in ("score_stats", "brute_force_distribution", "monte_carlo_mae"):
            monkeypatch.setattr(cli.permstats, name, refuse)

    def test_exact_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--exact", "2..8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 24

    def test_exact_range_enumerates_each_size_once(self, capsys, enumerated_sizes):
        code, out, _ = run(capsys, "verify", "--exact", "2..9")
        assert code == 0
        assert enumerated_sizes == list(range(2, 10))
        for n in range(2, 10):
            assert f"n={n} worst_count: PASS" in out

    def test_exact_range_above_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--exact", f"2..{ORACLE_MAX_N + 1}")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --exact must be at most {ORACLE_MAX_N}, the enumeration ceiling, "
            f"got {ORACLE_MAX_N + 1}\n"
        )

    @pytest.mark.parametrize(
        "text, got",
        [("2..11\n", "11"), (" 2..11", "11"), ("2.." + "9" * 5000, "an integer of 16610 bits")],
        ids=["newline", "blank", "5000-digits"],
    )
    def test_a_bound_past_the_ceiling_is_named_parsed(self, capsys, text, got):
        code, out, err = run(capsys, "verify", "--exact", text)
        assert (code, out) == (2, "")
        assert err == f"error: --exact must be at most 10, the enumeration ceiling, got {got}\n"

    def test_single_size_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--exact", "4")
        assert code == 0
        assert "n=4 worst_count: PASS" in out

    def test_mc_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "20", "--samples", "50000", "--seed", "42"
        )
        assert code == 0
        assert "mc_mean_mae: PASS" in out

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "20", "--samples", "1000")
        assert code == 2
        assert "seed" in err

    def test_requires_a_mode(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, "verify", "--exact", "2-8")
        assert (code, err) == (2, "error: --exact must look like 4 or 2..8, got '2-8'\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--exact", "1..4"), "--exact"),
            (("--n", str(STATS_MAX_N + 1), "--samples", "10", "--seed", "1"), "--n"),
            (("--n", "20", "--samples", "0", "--seed", "1"), "--samples"),
            (("--n", "20", "--samples", str(MC_MAX_WORK // 20 + 1), "--seed", "1"), "--samples"),
            (("--n", "1000", "--samples", str(10**8), "--seed", "1"), "--samples"),
            (("--n", "1", "--samples", "10", "--seed", "1"), "--n"),
            (("--n", "20", "--samples", "10", "--seed", "-1"), "--seed"),
            (("--n", "20", "--samples", "10", "--seed", str(1 << 64)), "--seed"),
        ],
    )
    def test_out_of_range_flags_exit_two_before_any_work(self, capsys, no_work, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be")

    def test_a_bad_seed_is_refused_before_any_enumeration(self, capsys, enumerated_sizes):
        code, out, err = run(
            capsys, "verify", "--exact", "2..10", "--n", "20", "--samples", "10",
            "--seed", "-1",
        )
        assert (code, out, enumerated_sizes) == (2, "", [])
        assert err == "error: --seed must be within 0..2**64-1, got -1\n"

    @pytest.mark.parametrize("exact", [(), ("--exact", "2..4")], ids=["alone", "with-exact"])
    @pytest.mark.parametrize(
        "given",
        [given for size in (1, 2) for given in itertools.combinations(MC_FLAGS, size)],
        ids=lambda given: "-".join(flag[2:] for flag in given),
    )
    def test_the_monte_carlo_flags_go_together(self, capsys, no_work, given, exact):
        argv = [token for flag in given for token in (flag, MC_FLAGS[flag])]
        code, out, err = run(capsys, "verify", *exact, *argv)
        missing = [flag for flag in MC_FLAGS if flag not in given]
        assert (code, out) == (2, "")
        assert err == f"error: {' and '.join(missing)} must be given with {' and '.join(given)}\n"

    @pytest.mark.parametrize(
        "path", sorted(transcripts.TRANSCRIPTS.glob("refuse-verify-*.json")), ids=lambda p: p.stem
    )
    def test_every_refusal_comes_before_any_work(self, capsys, no_work, path):
        code, out, err = run(capsys, *json.loads(path.read_bytes())["argv"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_the_64_bit_seed_range_is_inclusive(self, capsys):
        for seed in (0, (1 << 64) - 1):
            code, out, _ = run(
                capsys, "verify", "--n", "4", "--samples", "10", "--seed", str(seed)
            )
            assert code == 0
            assert out.endswith(f"seed {seed})\n")

    def test_mc_work_is_bounded_by_n_times_samples(self):
        permstats.check_sizes(20, 10**8, "--n", "--samples")
        permstats.check_sizes(1000, MC_MAX_WORK // 1000, "--n", "--samples")
        with pytest.raises(ValueError, match="--n x --samples") as info:
            permstats.check_sizes(1000, 10**8, "--n", "--samples")
        assert str(info.value).startswith(f"--samples must be at most {MC_MAX_WORK // 1000}")

    def test_largest_allowed_values_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--exact", str(ORACLE_MAX_N))
        assert code == 0
        assert f"n={ORACLE_MAX_N} worst_count: PASS" in out
        code, out, _ = run(
            capsys, "verify", "--n", str(STATS_MAX_N), "--samples", "1", "--seed", "1"
        )
        assert code == 0
        assert f"n={STATS_MAX_N} mc_mean_mae: PASS" in out

    def test_mc_mismatch_exits_one(self, capsys, monkeypatch):
        from fractions import Fraction

        from tableguess import cli, permstats

        skewed = permstats.MonteCarloSummary(
            n=20,
            samples=1000,
            seed=1,
            mean=Fraction(99),
            variance=Fraction(0),
            minimum=Fraction(99),
            maximum=Fraction(99),
        )
        monkeypatch.setattr(cli.permstats, "monte_carlo_mae", lambda *a, **k: skewed)
        code, out, _ = run(
            capsys, "verify", "--n", "20", "--samples", "1000", "--seed", "1"
        )
        assert code == 1
        assert "FAIL" in out


    def test_closed_form_mismatch_exits_one(self, capsys, monkeypatch):
        from tableguess import cli, permstats

        exact = permstats.score_stats

        def skewed(n):
            stats = exact(n)
            return permstats.ScoreStats(
                **{**vars(stats), "variance_score": stats.variance_score + 1}
            )

        monkeypatch.setattr(cli.permstats, "score_stats", skewed)
        code, out, _ = run(capsys, "verify", "--exact", "3")
        assert code == 1
        assert out.splitlines() == [
            "n=3 expected_score: PASS",
            "n=3 variance_score: FAIL (enumerated 20/9, closed form 29/9)",
            "n=3 max_score: PASS",
            "n=3 worst_count: PASS",
        ]

    def test_exact_and_mc_output_is_pinned(self, capsys):
        code, out, err = run(
            capsys, "verify", "--exact", "2..3", "--n", "4", "--samples", "100",
            "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert out == (
            "n=2 expected_score: PASS\n"
            "n=2 variance_score: PASS\n"
            "n=2 max_score: PASS\n"
            "n=2 worst_count: PASS\n"
            "n=3 expected_score: PASS\n"
            "n=3 variance_score: PASS\n"
            "n=3 max_score: PASS\n"
            "n=3 worst_count: PASS\n"
            "n=4 mc_mean_mae: PASS (sample 1.295000, expected 1.250000, "
            "tolerance 0.156125, samples 100, seed 1)\n"
        )


class TestMae:
    def test_bundled_fixture_scores(self, capsys, merson_files):
        pred, actual = merson_files
        code, out, _ = run(capsys, "mae", "--pred", pred, "--actual", actual)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["footrule"] == "56"
        assert row["mae"] == "2.8"
        assert row["mse"] == "14.0"

    def test_identical_files_score_zero(self, capsys, merson_files):
        _, actual = merson_files
        code, out, _ = run(capsys, "mae", "--pred", actual, "--actual", actual)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["footrule"] == "0"

    def test_json_matches_csv(self, capsys, merson_files):
        pred, actual = merson_files
        _, out_json, _ = run(capsys, "mae", "--pred", pred, "--actual", actual, "--format", "json")
        payload = json.loads(out_json)
        assert payload == {"footrule": 56, "mae": 2.8, "mse": 14.0}

    def test_mismatched_lengths(self, capsys, tmp_path, merson_files):
        _, actual = merson_files
        short = tmp_path / "short.csv"
        short.write_text("position,team\n1,A\n2,B\n", encoding="utf-8")
        code, _, err = run(capsys, "mae", "--pred", str(short), "--actual", actual)
        assert code == 2

    def test_mismatched_lengths_name_both_files(self, capsys, tmp_path, merson_files):
        _, actual = merson_files
        short = tmp_path / "short.csv"
        short.write_text("position,team\n1,A\n2,B\n", encoding="utf-8")
        code, out, err = run(capsys, "mae", "--pred", str(short), "--actual", actual)
        assert (code, out) == (2, "")
        assert err == (
            f"error: --actual {actual}, --pred {short}: "
            "orders differ in length: actual 20 vs predicted 2\n"
        )

    def test_unknown_team_names_both_files(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        actual = tmp_path / "actual.json"
        pred.write_text("position,team\n1,A\n2,B\n", encoding="utf-8")
        actual.write_text('["A", "C"]', encoding="utf-8")
        code, out, err = run(capsys, "mae", "--pred", str(pred), "--actual", str(actual))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --actual {actual}, --pred {pred}: label 'C' missing from predicted order\n"
        )

    def test_missing_file(self, capsys, merson_files):
        _, actual = merson_files
        code, _, err = run(capsys, "mae", "--pred", "/no/such/file.csv", "--actual", actual)
        assert code == 2

    def test_json_table_files_are_accepted(self, capsys, tmp_path):
        pred = tmp_path / "pred.json"
        actual = tmp_path / "actual.json"
        pred.write_text(json.dumps(["B", "A", "C"]), encoding="utf-8")
        actual.write_text(json.dumps(["A", "B", "C"]), encoding="utf-8")
        code, out, _ = run(capsys, "mae", "--pred", str(pred), "--actual", str(actual), "--format", "json")
        assert code == 0
        assert json.loads(out)["footrule"] == 2

    def test_table_files_with_a_bom_are_accepted(self, capsys, tmp_path):
        bom = b"\xef\xbb\xbf"
        pred = tmp_path / "pred.json"
        actual = tmp_path / "actual.csv"
        pred.write_bytes(bom + json.dumps(["B", "A", "C"]).encode())
        actual.write_bytes(bom + b"position,team\n1,A\n2,B\n3,C\n")
        code, out, _ = run(capsys, "mae", "--pred", str(pred), "--actual", str(actual), "--format", "json")
        assert code == 0
        assert json.loads(out)["footrule"] == 2
        assert read_table_file(actual) == ["A", "B", "C"]

    def test_padded_names_read_the_same_in_both_formats(self, capsys, tmp_path):
        pred = tmp_path / "t.json"
        actual = tmp_path / "t.csv"
        pred.write_text('["A ", "B"]', encoding="utf-8")
        actual.write_text("position,team\n1,A \n2,B\n", encoding="utf-8")
        code, out, err = run(capsys, "mae", "--pred", str(pred), "--actual", str(actual))
        assert (code, err) == (0, "")
        assert next(csv.DictReader(io.StringIO(out)))["footrule"] == "0"


class TestR2:
    def test_flat_fixture_curves(self, capsys, flat_file):
        code, out, _ = run(capsys, "r2", flat_file)
        assert code == 0
        records = curve_rows(out)
        rank_values = [r["r_squared"] for r in records if r["kind"] == "table_rank"]
        assert rank_values == [1.0, 1.0, 1.0]

    def test_draw_rounds_leave_empty_cells(self, capsys, drawish_file):
        code, out, _ = run(capsys, "r2", drawish_file)
        assert code == 0
        assert "drawish,goal_difference,1,\n" in out

    def test_threshold_report(self, capsys, flat_file):
        code, out, err = run(capsys, "r2", flat_file, "--threshold", "0.8")
        assert code == 0
        assert "table_rank: reaches 0.8 at round 1" in err

    def test_threshold_never_reached(self, capsys, synthetic_path):
        code, _, err = run(capsys, "r2", synthetic_path, "--threshold", "1")
        assert code == 0
        assert err == "table_rank: reaches 1.0 at round 26\ngoal_difference: never reaches 1.0\n"

    def test_json_matches_csv_records(self, capsys, synthetic_path, drawish_file):
        # the drawish file's undefined round reads null in JSON and empty in CSV
        for path in (synthetic_path, drawish_file):
            code, out_csv, _ = run(capsys, "r2", path)
            assert code == 0
            code, out_json, _ = run(capsys, "r2", path, "--format", "json", "--threshold", "0.8")
            assert code == 0
            payload = json.loads(out_json)
            assert payload["records"] == curve_rows(out_csv)
            assert set(payload["threshold_rounds"]) == {"table_rank", "goal_difference"}
        assert None in (record["r_squared"] for record in payload["records"])

    @pytest.mark.parametrize("threshold", ["2", "0", "-1", "nan"])
    def test_a_bad_threshold_is_refused_before_the_file_is_read(self, capsys, threshold):
        code, out, err = run(capsys, "r2", "/no/such/matches.csv", "--threshold", threshold)
        assert (code, out) == (2, "")
        assert err == f"error: --threshold must be within (0, 1], got {float(threshold)}\n"

    def test_missing_matches_file(self, capsys):
        code, _, err = run(capsys, "r2", "/no/such/matches.csv")
        assert code == 2

    def test_overlong_field_exits_two(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text(DRAWISH_SEASON_CSV + f"drawish,3,A,{'B' * 200_000},0,0\n", encoding="utf-8")
        code, out, err = run(capsys, "r2", str(big))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {big}: line 6: field larger than field limit")

    def test_blank_team_name_exits_two(self, capsys, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(DRAWISH_SEASON_CSV + "drawish,3,A,,1,0\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: line 6: away_team must not be blank\n"


class TestPredict:
    def test_final_round_rank_prediction_is_the_final_table(self, capsys, synthetic_path):
        code, out, _ = run(capsys, "predict", synthetic_path)
        assert code == 0
        dataset = league.parse_matches(synthetic_path)
        final_order = [row.team for row in league.final_standings(dataset).rows]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["team"] for r in rows] == final_order

    def test_gd_round_three_matches_oracle_sort(self, capsys, synthetic_path):
        code, out, _ = run(capsys, "predict", synthetic_path, "--round", "3", "--strategy", "gd")
        assert code == 0
        dataset = league.parse_matches(synthetic_path)
        table = league.standings_at_round(dataset, 3)
        oracle = tuple(
            r.team
            for r in sorted(
                table.rows,
                key=lambda r: (-r.goal_difference, -r.points, -r.goals_for, r.team),
            )
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert tuple(r["team"] for r in rows) == oracle

    def test_output_round_trips_as_a_table_file(self, capsys, synthetic_path, tmp_path):
        target = tmp_path / "prediction.csv"
        code, _, _ = run(capsys, "predict", synthetic_path, "--round", "5", "--output", str(target))
        assert code == 0
        teams = read_table_file(target)
        assert len(teams) == 14

    @pytest.mark.parametrize(
        "mark",
        ["\n", "\r", "\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d", "\x1e"],
        ids=lambda mark: f"U+{ord(mark):04X}",
    )
    def test_names_holding_a_line_break_round_trip(self, capsys, tmp_path, mark):
        """A name holding a quoted newline or carriage return, or a character
        that Unicode but not CSV counts as a line break, reads back from
        predict's table."""
        a, b = f"A{mark}1", f"B{mark}2"
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC).writerows(
            [league.MATCH_FIELDS, ("S", 1, a, b, 0, 2), ("S", 1, "C", "D", 1, 1), ("S", 2, a, "C", 3, 0)]
        )
        matches, table, order = tmp_path / "m.csv", tmp_path / "t.csv", tmp_path / "t.json"
        matches.write_text(buffer.getvalue(), encoding="utf-8", newline="")
        assert run(capsys, "predict", str(matches), "--output", str(table))[0] == 0
        assert run(capsys, "predict", str(matches), "--format", "json", "--output", str(order))[0] == 0
        predicted = json.loads(order.read_text(encoding="utf-8"))
        assert read_table_file(table) == predicted == [b, a, "D", "C"]
        code, out, err = run(capsys, "mae", "--pred", str(table), "--actual", str(order), "--format", "json")
        assert (code, err, json.loads(out)["footrule"]) == (0, "", 0)

    def test_json_format_is_a_team_array(self, capsys, synthetic_path):
        code, out, _ = run(capsys, "predict", synthetic_path, "--format", "json")
        assert code == 0
        teams = json.loads(out)
        assert isinstance(teams, list) and len(teams) == 14

    def test_round_out_of_range(self, capsys, synthetic_path):
        code, _, err = run(capsys, "predict", synthetic_path, "--round", "99")
        assert code == 2

    @pytest.mark.parametrize("rnd", ["0", "27", "-1"])
    def test_round_refusal_names_the_flag_and_the_file(self, capsys, synthetic_path, rnd):
        code, out, err = run(capsys, "predict", synthetic_path, "--round", rnd)
        assert (code, out) == (2, "")
        assert err == f"error: {synthetic_path}: --round must be within 1..26, got {rnd}\n"


class TestEvaluate:
    def test_csv_records_parse(self, capsys, synthetic_path):
        code, out, _ = run(capsys, "evaluate", synthetic_path)
        assert code == 0
        records = report_rows(out)
        assert len(records) == 52
        final_rank = [r for r in records if r["round"] == 26 and r["strategy"] == "rank"]
        assert final_rank[0]["mae"] == 0.0

    def test_json_matches_csv_records(self, capsys, synthetic_path):
        code, out_csv, _ = run(capsys, "evaluate", synthetic_path)
        code, out_json, _ = run(capsys, "evaluate", synthetic_path, "--format", "json")
        assert code == 0
        payload = json.loads(out_json)
        assert payload["records"] == report_rows(out_csv)
        assert payload["summary"]["baseline_expected_mae"]["exact"] == "65/14"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_failed_summary_write_names_the_file(self, capsys, synthetic_path, tmp_path):
        code, _, err = run(
            capsys, "evaluate", synthetic_path, "--output", str(tmp_path / "records.csv"),
            "--summary", "/dev/full",
        )
        assert code == 2
        assert err == "error: [Errno 28] No space left on device: '/dev/full'\n"

    def test_summary_file(self, capsys, synthetic_path, tmp_path):
        target = tmp_path / "summary.json"
        code, _, _ = run(capsys, "evaluate", synthetic_path, "--summary", str(target))
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["n"] == 14
        assert "threshold_rounds" in summary

    def test_outputs_are_deterministic(self, capsys, synthetic_path):
        _, first, _ = run(capsys, "evaluate", synthetic_path)
        _, second, _ = run(capsys, "evaluate", synthetic_path)
        assert first == second

    @pytest.mark.parametrize("fraction", ["inf", "1e309"])
    def test_non_finite_baseline_fraction_exits_two(self, capsys, synthetic_path, fraction):
        code, out, err = run(capsys, "evaluate", synthetic_path, "--baseline-fraction", fraction)
        assert code == 2
        assert out == ""
        assert err == "error: --baseline-fraction must be finite, got inf\n"

    @pytest.mark.parametrize(
        "fraction, rule",
        [("0", "positive"), ("-1", "positive"), ("inf", "finite"), ("nan", "finite")],
        ids=["0", "-1", "inf", "nan"],
    )
    def test_a_bad_baseline_fraction_is_refused_before_the_file_is_read(
        self, capsys, fraction, rule
    ):
        argv = ("evaluate", "/no/such/matches.csv", "--baseline-fraction", fraction)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --baseline-fraction must be {rule}, got {float(fraction)}\n"

    def test_a_mae_equal_to_the_cutoff_is_not_below_it(self, capsys, synthetic_path):
        code, out, _ = run(
            capsys, "evaluate", synthetic_path, "--format", "json", "--baseline-fraction", "0.8"
        )
        assert code == 0
        payload = json.loads(out)
        # both strategies score 26/7 at round 1, exactly 0.8 of 65/14
        assert {r["mae"] for r in payload["records"] if r["round"] == 1} == {26 / 7}
        assert payload["summary"]["baseline_fraction"] == 0.8
        assert payload["summary"]["threshold_rounds"] == {"rank": 6, "gd": 5}


class TestTableFiles:
    def test_csv_positions_must_be_contiguous(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("position,team\n1,A\n3,B\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_table_file(bad)

    def test_duplicate_teams_rejected(self, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(["A", "A", "B"]), encoding="utf-8")
        with pytest.raises(ValueError):
            read_table_file(bad)

    def test_bad_position_names_file_and_line(self, capsys, tmp_path, merson_files):
        _, actual = merson_files
        bad = tmp_path / "bad.csv"
        bad.write_text("position,team\n1,A\nx,B\n", encoding="utf-8")
        code, _, err = run(capsys, "mae", "--pred", str(bad), "--actual", actual)
        assert code == 2
        assert f"{bad}: line 3" in err
        assert "'x'" in err

    def test_overlong_field_names_file_and_line(self, capsys, tmp_path, merson_files):
        _, actual = merson_files
        big = tmp_path / "big.csv"
        big.write_text(f"position,team\n1,A\n2,{'B' * 200_000}\n", encoding="utf-8")
        code, out, err = run(capsys, "mae", "--pred", str(big), "--actual", actual)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {big}: line 3: field larger than field limit")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('["A", "B"', "Expecting"),
            ("[" * 100_000, "recursion"),
            ('{"A": 1}', "JSON table must be an array"),
        ],
        ids=["truncated", "deeply-nested", "object"],
    )
    def test_malformed_json_names_the_file(self, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            read_table_file(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize(
        "content",
        [b"position,team\n1,\xff\n2,B\n", b'["A",\n"\xff"]\n'],
        ids=["csv", "json"],
    )
    def test_bytes_that_are_not_utf8_name_file_and_line(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.table"
        bad.write_bytes(content)
        with pytest.raises(ValueError) as info:
            read_table_file(bad)
        assert str(info.value) == f"{bad}: line 2: not valid utf-8: invalid start byte"
        code, _, err = run(capsys, "mae", "--pred", str(bad), "--actual", str(bad))
        assert (code, err) == (2, f"error: {info.value}\n")

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_a_line_end_of_cr_or_crlf_counts_once(self, capsys, tmp_path, end):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(end.join([b"position,team", b"1,A", b"2,\xff", b""]))
        code, _, err = run(capsys, "mae", "--pred", str(bad), "--actual", str(bad))
        assert (code, err) == (2, f"error: {bad}: line 3: not valid utf-8: invalid start byte\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("position,team\n1,\n2,B\n", "line 2"),
            ("position,team\n1,A\n2, \t\n", "line 3"),
            ('["", "B"]', "position 1"),
            ('["A", " \\t"]', "position 2"),
        ],
        ids=["csv-empty", "csv-whitespace", "json-empty", "json-whitespace"],
    )
    def test_blank_team_names_exit_two(self, capsys, tmp_path, text, where):
        bad = tmp_path / "blank.table"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "mae", "--pred", str(bad), "--actual", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {where}: team must not be blank\n"

    @pytest.mark.parametrize(
        "text, fault",
        [
            ('["A", "A "]', "position 2: team 'A' is also on position 1"),
            ("position,team\n1,A\n2, A\n", "line 3: team 'A' is also on line 2"),
        ],
        ids=["json", "csv"],
    )
    def test_names_equal_once_stripped_are_duplicates(self, tmp_path, text, fault):
        table = tmp_path / "dup.table"
        table.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_table_file(table)
        assert str(info.value) == f"{table}: {fault}"

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ("1,A\n3,B\n", "line 3: position must be in 1..2, got 3"),
            ("2,A\n0,B\n", "line 3: position must be in 1..2, got 0"),
            ("1,A\n2,B\n1,C\n", "line 4: position 1 is also on line 2"),
            ("1,A\n2,B\n3,A\n", "line 4: team 'A' is also on line 2"),
            (f"1,A\n{'9' * 5000},B\n", "line 3: position must be in 1..2, got 5000 digits"),
            (f"1,A\n{'0' * 5000}2,B\n", "line 3: position must be in 1..2, got 5001 digits"),
        ],
        ids=["gap", "zero", "repeated-position", "repeated-team", "5000-digits", "zero-padded"],
    )
    def test_a_bad_position_or_team_names_its_line_and_value(self, tmp_path, rows, fault):
        table = tmp_path / "bad.csv"
        table.write_text("position,team\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_table_file(table)
        assert str(info.value) == f"{table}: {fault}"

    def test_positions_may_come_unordered(self, tmp_path):
        table = tmp_path / "shuffled.csv"
        table.write_text("position,team\n2,B\n1,A\n3,C\n", encoding="utf-8")
        assert read_table_file(table) == ["A", "B", "C"]

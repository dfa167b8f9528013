"""The three workloads: what one op does, its inputs, and its check.

Every op of a workload has the same shape, so that medians and the 90th
percentile describe one kind of work:

* ``season``: one 20-team season through the match-data pipeline, in process.
* ``oracle``: the random-guess baseline and its oracles, in process.
* ``cli``: one ``python -m tableguess.cli`` process, cycling through five commands.

Nothing here imports tableguess at module level; ``load`` does, so that
the set-up probe can time the import. For the same reason the module
imports at its top only what generating inputs and running ops need, none
of which tableguess imports; the checks (``oracles``, ``json``) are imported
where they are used.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import seasons

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
DATA = SRC / "tableguess" / "data"
MERSON = DATA / "merson_2016_17_prediction.csv"
PL_FINAL = DATA / "pl_2016_17_final.csv"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def warm_up(workload) -> None:
    """Untimed, unchecked ops; a fault they hit shows up again in the timed ops."""
    for k in range(workload.warmup_ops):
        try:
            workload.op(k)
        except Exception:
            pass


class SeasonWorkload:
    """One op parses one season's CSV text and runs every in-process analysis on it."""

    name = "season"
    pool = 8  # seasons per run
    round_len = pool  # a round of ops visits each season once
    warmup_ops = pool

    def __init__(self, seed: int) -> None:
        self.seasons = seasons.make_pool(seed, self.pool)
        self.texts = [s.csv_text() for s in self.seasons]
        self.expected = None

    def expect(self) -> None:
        import oracles

        self.expected = [oracles.expect_season(s) for s in self.seasons]

    def load(self) -> None:
        from tableguess import league, permstats, predictor, regression

        self.modules = (league, predictor, regression, permstats)

    def op(self, k: int):
        league, predictor, regression, permstats = self.modules
        ds = league.parse_matches(io.StringIO(self.texts[k % self.pool]))
        report = predictor.evaluate_season(ds)
        curves = [regression.r2_curve(ds, kind) for kind in regression.CURVE_KINDS]
        final = league.final_standings(ds)
        mid_table = league.standings_at_round(ds, seasons.MID_ROUND)
        final_order = [row.team for row in final.rows]
        mid = {}
        for strategy, order_of in (
            ("rank", predictor.predicted_order_by_rank),
            ("gd", predictor.predicted_order_by_gd),
        ):
            order = order_of(mid_table)
            mid[strategy] = (order, permstats.mae(permstats.ranking_from_orders(final_order, order)))
        return final, mid_table, report, curves, mid

    def check(self, k: int, out) -> None:
        import oracles

        oracles.check_season_op(out, self.expected[k % self.pool])

    def close(self) -> None:
        pass


class OracleWorkload:
    """One op: ``score_stats(9)``, the n=8 enumeration oracle and an n=20 Monte Carlo check."""

    name = "oracle"
    stats_n = 9  # odd, so score_stats enumerates n! for the worst-case count
    dist_n = 8  # the largest even size ``verify --exact`` enumerates
    mc_n = 20
    mc_samples = 50_000
    pool = 4  # Monte Carlo seeds per run
    round_len = pool  # a round of ops uses each seed once
    warmup_ops = 1

    def __init__(self, seed: int) -> None:
        self.mc_seeds = [seasons.derived_seed(seed, "mc", i) for i in range(self.pool)]
        self.expected = None

    def expect(self) -> None:
        import oracles

        self.expected = oracles.expect_oracle(
            self.stats_n, self.dist_n, self.mc_n, self.mc_samples, self.mc_seeds
        )

    def load(self) -> None:
        from tableguess import permstats

        self.permstats = permstats

    def op(self, k: int):
        ps = self.permstats
        stats = ps.score_stats(self.stats_n)
        dist = ps.brute_force_distribution(self.dist_n)
        moments = ps.distribution_moments(dist)
        summary = ps.monte_carlo_mae(self.mc_n, self.mc_samples, self.mc_seeds[k % self.pool])
        return stats, dist, moments, summary

    def check(self, k: int, out) -> None:
        import oracles

        oracles.check_oracle_op(out, self.mc_seeds[k % self.pool], self.expected)

    def close(self) -> None:
        pass


class CliWorkload:
    """One op is one CLI process; a round runs mae, stats, predict, evaluate and r2."""

    name = "cli"
    commands = ("mae", "stats", "predict", "evaluate", "r2")
    pool = 4  # season files per run; round r uses file r % pool
    round_len = len(commands)
    warmup_ops = round_len

    def __init__(self, seed: int) -> None:
        self.seasons = seasons.make_pool(seed, self.pool)
        self.expected = None
        self.peak_rss_kb = 0
        self.workdir = PERFBENCH / "out" / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i, s in enumerate(self.seasons):
            path = self.workdir / f"season{i}.csv"
            path.write_text(s.csv_text(), encoding="utf-8")
            self.files.append(path)

    def expect(self) -> None:
        import oracles

        self.expected = [oracles.expect_season(s) for s in self.seasons]
        self.merson_footrule = oracles.table_footrule(PL_FINAL, MERSON)

    def load(self) -> None:
        """Nothing to load: each op starts its own interpreter."""

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()

    def argv(self, k: int) -> list[str]:
        command = self.commands[k % len(self.commands)]
        season_file = str(self.files[(k // len(self.commands)) % self.pool])
        return {
            "mae": ["mae", "--pred", str(MERSON), "--actual", str(PL_FINAL)],
            "stats": ["stats", "--n", str(seasons.TEAMS)],
            "predict": ["predict", season_file, "--round", str(seasons.MID_ROUND), "--strategy", "gd"],
            "evaluate": ["evaluate", season_file],
            "r2": ["r2", season_file],
        }[command] + ["--format", "json"]

    def op(self, k: int):
        out_path = self.workdir / "stdout.json"
        err_path = self.workdir / "stderr.txt"
        cmd = [sys.executable, "-m", "tableguess.cli", *self.argv(k)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        command = self.commands[k % len(self.commands)]
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return command, proc.returncode, out_path, err_path

    def check(self, k: int, out) -> None:
        import json

        import oracles

        command, code, out_path, err_path = out
        if code != 0:
            raise oracles.Mismatch(f"{command} exited {code}: {err_path.read_text(encoding='utf-8')[-500:]}")
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        want = self.expected[(k // len(self.commands)) % self.pool]
        if command == "mae":
            oracles.check_cli_mae(payload, self.merson_footrule, 20)
        elif command == "stats":
            oracles.check_cli_stats(payload, seasons.TEAMS)
        elif command == "predict":
            oracles.check_cli_predict(payload, want, "gd")
        elif command == "evaluate":
            oracles.check_cli_evaluate(payload, want)
        else:
            oracles.check_cli_r2(payload, want)


WORKLOADS = {w.name: w for w in (SeasonWorkload, OracleWorkload, CliWorkload)}

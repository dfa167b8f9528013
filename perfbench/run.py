"""Run one tableguess benchmark workload and print its metrics as JSON.

  python3 perfbench/run.py --workload {season,oracle,cli} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; tableguess is imported from the
checkout's ``src/``, never from an installed copy. One single-threaded
client runs a closed loop: it starts the next op when the last one has
returned, for at least ``--seconds`` and at least 100 ops, in whole rounds;
a run that cannot reach 100 ops within 120 s fails without a result.
Inputs are generated from ``--seed`` and held in memory before any timing.
Every op's output is checked against an expectation computed without
tableguess (see oracles.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the public
functions of league, predictor, regression, permstats and _kernels with
spans and reports the per-layer metrics; its spans go to
``perfbench/out/trace-<workload>-seed<N>.csv.gz`` and a summary, with the
traced latencies, to ``perfbench/out/trace-<workload>-seed<N>.json``.
The last line of standard output is always the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import spans
import workloads
from spans import CALLS, ITEM_COUNT, SELF

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # enough for ten ops beyond the 90th percentile
MAX_SECONDS = 120  # a loop still short of MIN_OPS here is an error
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def probe(*args: str) -> dict:
    """Run perfbench/child.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=workloads.child_env(),
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def closed_loop(workload, seconds: int, tracer=None):
    """Run whole rounds of ops; return ({op: latency in s}, ops attempted, ops failed)."""
    latencies: dict[int, float] = {}
    failed = 0
    k = 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_len):
            if tracer is not None:
                tracer.op_id = k
            t0 = time.perf_counter()
            try:
                out = workload.op(k)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                failed += 1
                print(f"op {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                k += 1
                continue
            latencies[k] = time.perf_counter() - t0
            try:
                workload.check(k, out)
            except oracles.Mismatch as exc:
                failed += 1
                print(f"op {k} output is wrong: {exc}", file=sys.stderr)
            k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and k >= MIN_OPS:
            return latencies, k, failed
        if elapsed >= MAX_SECONDS:
            raise BenchError(f"only {k} ops in {elapsed:.0f} s; a run needs {MIN_OPS}")


def percentiles_ms(latencies: dict[int, float]) -> tuple[float, float]:
    if len(latencies) < 2:
        return 0.0, 0.0
    ms = [x * 1e3 for x in latencies.values()]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def layer_metrics(
    workload, profile, imports: list[dict], latencies: dict[int, float]
) -> dict[str, tuple[float, str]]:
    commands = getattr(workload, "commands", ())

    def cli_ms(command: str) -> float:
        """Median latency of the timed ops that ran ``command``; 0 outside ``cli``."""
        if command not in commands:
            return 0.0
        i = commands.index(command)
        return statistics.median(t for k, t in latencies.items() if k % len(commands) == i) * 1e3

    p = profile
    return {
        "league.parse_matches_ms": (p.median_ms("league.parse_matches"), "ms"),
        "league.standings_series_ms": (p.median_ms("league.standings_series"), "ms"),
        "league.standings_series_calls": (p.per_op_mean("league.standings_series", CALLS), "count"),
        "league.standings_at_round_ms": (p.median_ms("league.standings_at_round"), "ms"),
        "predictor.evaluate_season_ms": (p.median_ms("predictor.evaluate_season", SELF), "ms"),
        "regression.r2_curve_ms": (p.median_ms("regression.r2_curve", SELF), "ms"),
        "regression.simple_ols_us": (p.per_call_us("regression.simple_ols"), "us"),
        "regression.simple_ols_calls": (p.per_op_mean("regression.simple_ols", CALLS), "count"),
        "permstats.ranking_from_orders_us": (p.per_call_us("permstats.ranking_from_orders"), "us"),
        "permstats.ranking_calls": (p.per_op_mean("permstats.ranking_from_orders", CALLS), "count"),
        "permstats.mae_us": (p.per_call_us("permstats.mae"), "us"),
        "permstats.score_stats_ms": (p.median_ms("permstats.score_stats", SELF), "ms"),
        "kernels.enum_perms": (p.per_op_mean("_kernels.score_distribution_counts", ITEM_COUNT), "count"),
        "kernels.enum_perms_per_s": (p.rate("_kernels.score_distribution_counts"), "1/s"),
        "permstats.brute_force_distribution_ms": (p.median_ms("permstats.brute_force_distribution"), "ms"),
        "permstats.monte_carlo_mae_ms": (p.median_ms("permstats.monte_carlo_mae"), "ms"),
        "kernels.mc_samples_per_s": (p.rate("_kernels.mc_score_moments"), "1/s"),
        "cli.import_ms": (statistics.median(x["import_s"] for x in imports) * 1e3, "ms"),
        "cli.modules_loaded": (statistics.median(x["modules_loaded"] for x in imports), "count"),
        "cli.mae_ms": (cli_ms("mae"), "ms"),
        "cli.stats_ms": (cli_ms("stats"), "ms"),
        "cli.predict_ms": (cli_ms("predict"), "ms"),
        "cli.evaluate_ms": (cli_ms("evaluate"), "ms"),
        "cli.r2_ms": (cli_ms("r2"), "ms"),
    }


def run(workload, args) -> dict:
    workload.expect()
    setup = None
    if not args.trace:
        setup = [probe("setup", workload.name, str(args.seed))["setup_s"] for _ in range(SETUP_REPEATS)]
    workload.load()
    loaded = sys.modules.get("tableguess")
    if loaded is not None and not Path(loaded.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"tableguess was imported from {loaded.__file__}, not from {SRC}")
    workloads.warm_up(workload)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    gc.collect()
    try:
        latencies, attempted, failed = closed_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p50, p90 = percentiles_ms(latencies)

    if tracer is None:
        if workload.name == "cli":
            rss_kb = workload.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
    else:
        imports = [probe("import") for _ in range(IMPORT_REPEATS)]
        metrics = layer_metrics(workload, spans.Profile(tracer), imports, latencies)
        stem = OUT / f"trace-{workload.name}-seed{args.seed}"
        tracer.write(stem.with_suffix(".csv.gz"))
        summary = {
            "workload": workload.name,
            "seed": args.seed,
            "ops": attempted,
            "spans": len(tracer.start),
            "traced_latency_p50_ms": p50,
            "traced_latency_p90_ms": p90,
            "metrics": {name: value for name, (value, _) in metrics.items()},
        }
        stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tableguess" / "__init__.py").is_file():
        print(f"perfbench: no tableguess source at {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = run(workload, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
    line = json.dumps(result)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The summary that tools/bench_pair.py writes into BENCH_*.json."""

import importlib.util
import json
import os
import resource
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def result(p50: float, rss: float, extra: dict | None = None) -> dict:
    metrics = {
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        **(extra or {}),
    }
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}


def run(pair: int, side: str, res: dict, trace: int = 0) -> dict:
    return {"trace": trace, "pair": pair, "seed": 100 + pair, "side": side, "result": res}


BETTER = {"latency_p50_ms": "lower", "peak_rss_mb": "lower", "kernels.rate": "higher"}


def test_medians_quartiles_and_wins_per_metric():
    parent_p50 = [5.0, 4.0, 6.0, 5.5]
    change_p50 = [4.0, 4.0, 5.0, 4.5]
    runs = []
    for pair, (p, c) in enumerate(zip(parent_p50, change_p50)):
        runs.append(run(pair, "parent", result(p, 20.0)))
        runs.append(run(pair, "change", result(c, 20.0 + pair)))
    summary = bench_pair.summarize(runs, BETTER)
    p50 = summary["trace0"]["latency_p50_ms"]
    assert p50["unit"] == "ms"
    assert p50["pairs"] == 4
    assert p50["parent"] == {"median": 5.25, "q1": 4.75, "q3": 5.625}
    assert p50["change"] == {"median": 4.25, "q1": 4.0, "q3": 4.625}
    # the pair at 4.0 against 4.0 is a tie
    assert (p50["change_wins"], p50["change_losses"]) == (3, 0)
    rss = summary["trace0"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["change_losses"]) == (0, 3)


def test_higher_is_better_and_unknown_metrics_get_no_wins():
    runs = [
        run(0, "parent", result(1.0, 1.0, {"kernels.rate": {"value": 10.0, "unit": "1/s"}}), trace=1),
        run(0, "change", result(1.0, 1.0, {"kernels.rate": {"value": 12.0, "unit": "1/s"}}), trace=1),
    ]
    summary = bench_pair.summarize(runs, {"kernels.rate": "higher"})
    rate = summary["trace1"]["kernels.rate"]
    assert rate["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert rate["change_wins"] == 1
    assert "change_wins" not in summary["trace1"]["latency_p50_ms"]


def test_unpaired_runs_and_modes_are_kept_apart():
    runs = [
        run(0, "parent", result(5.0, 20.0)),
        run(0, "change", result(4.0, 20.0)),
        run(1, "parent", result(9.0, 20.0)),
        run(0, "parent", result(50.0, 20.0), trace=1),
        run(0, "change", result(40.0, 20.0), trace=1),
    ]
    summary = bench_pair.summarize(runs, BETTER)
    assert summary["trace0"]["latency_p50_ms"]["pairs"] == 1
    assert summary["trace0"]["latency_p50_ms"]["parent"]["median"] == 5.0
    assert summary["trace1"]["latency_p50_ms"]["change"]["median"] == 40.0


BOUNDS = {"latency_p50_ms": 0.24}
VERDICTS = ("gain", "within_bound", "unresolved")


def p50_verdicts(parent: list[float], change: list[float], trace: int = 0) -> dict:
    """The verdicts of latency_p50_ms over canned pairs of runs."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append(run(pair, "parent", result(p, 20.0), trace))
        runs.append(run(pair, "change", result(c, 20.0), trace))
    entry = bench_pair.summarize(runs, BETTER, BOUNDS)[f"trace{trace}"]["latency_p50_ms"]
    return {key: entry[key] for key in VERDICTS if key in entry}


# ten parent runs with median 10.0 and q3 - q1 = 0.15
PARENT = [9.9, 10.0, 10.1, 9.8, 10.2, 10.0, 9.9, 10.1, 10.0, 10.0]


def test_gain_needs_nine_pair_wins_and_a_gap_wider_than_the_parents_spread():
    assert p50_verdicts(PARENT, [p - 1.0 for p in PARENT]) == {
        "gain": True, "within_bound": True, "unresolved": False,
    }
    # nine wins of ten still count; eight do not
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert p50_verdicts(PARENT, nine)["gain"] is True
    eight = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert p50_verdicts(PARENT, eight)["gain"] is False
    # ten wins, but the medians differ by 0.1, less than the spread of 0.15
    assert p50_verdicts(PARENT, [p - 0.1 for p in PARENT])["gain"] is False
    # a tie counts for neither side
    assert p50_verdicts(PARENT, [PARENT[0]] + [p - 1.0 for p in PARENT[1:]])["gain"] is True
    ties = PARENT[:2] + [p - 1.0 for p in PARENT[2:]]
    assert p50_verdicts(PARENT, ties)["gain"] is False


def test_within_bound_is_relative_to_the_parents_median():
    # the bound allows 2.4 ms above the parent's median of 10.0
    assert p50_verdicts(PARENT, [p + 2.3 for p in PARENT]) == {
        "gain": False, "within_bound": True, "unresolved": False,
    }
    assert p50_verdicts(PARENT, [p + 2.5 for p in PARENT])["within_bound"] is False


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # median 10.0, q3 - q1 = 3.5, more than the bound's 2.4
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 10.0, 7.0, 13.0, 9.0, 11.0]
    assert p50_verdicts(wide, [p - 0.5 for p in wide]) == {
        "gain": False, "within_bound": True, "unresolved": True,
    }
    # every change run beats every parent run: resolved, and a gain
    assert p50_verdicts(wide, [5.0] * 10) == {
        "gain": True, "within_bound": True, "unresolved": False,
    }
    assert p50_verdicts(wide, [6.0] * 10)["unresolved"] is True


def test_verdicts_follow_the_better_direction():
    # a rate one higher in every pair
    runs = [
        run(pair, side, result(5.0, 20.0, {"kernels.rate": {"value": value, "unit": "1/s"}}))
        for pair, p in enumerate(PARENT)
        for side, value in (("parent", p), ("change", p + 1.0))
    ]
    entry = bench_pair.summarize(runs, BETTER, {"kernels.rate": 0.24})["trace0"]["kernels.rate"]
    assert (entry["gain"], entry["within_bound"], entry["unresolved"]) == (True, True, False)


def test_only_untraced_end_to_end_metrics_get_verdicts():
    assert p50_verdicts(PARENT, PARENT, trace=1) == {}
    runs = [run(0, "parent", result(5.0, 20.0)), run(0, "change", result(4.0, 20.0))]
    summary = bench_pair.summarize(runs, BETTER, BOUNDS)["trace0"]
    assert "gain" in summary["latency_p50_ms"]
    assert not set(VERDICTS) & set(summary["peak_rss_mb"])
    assert not set(VERDICTS) & set(bench_pair.summarize(runs, BETTER)["trace0"]["latency_p50_ms"])


def test_machine_names_the_host():
    host = bench_pair.machine()
    assert set(host) == {"cpu", "cores", "python", "numpy", "dont_write_bytecode"}
    assert host["dont_write_bytecode"] == bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))


def test_probe_summary_spreads_each_side():
    # pair 1 ran while the host was slow
    probes = {"parent": [30.0, 66.0, 31.0], "change": [28.0, 70.0, 29.0]}
    runs = [
        {**run(pair, side, result(5.0, 20.0)), "host_probe_ms": probe}
        for side, column in probes.items()
        for pair, probe in enumerate(column)
    ]
    assert bench_pair.probe_summary(runs) == {
        "parent": {"median": 31.0, "q1": 30.5, "q3": 48.5},
        "change": {"median": 29.0, "q1": 28.5, "q3": 49.5},
    }


def test_host_probe_times_bare_interpreter_starts():
    probe = bench_pair.host_probe(Path.cwd(), dict(os.environ))
    # a start costs milliseconds, not microseconds or minutes
    assert 0.5 < probe < 10_000


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_untracked_files_are_not_uncommitted_changes(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git(tmp_path, "add", "code.py")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    assert bench_pair.worktree_state(tmp_path) == (git(tmp_path, "rev-parse", "HEAD"), False)
    (tmp_path / "code.py").write_text("x = 2\n")
    assert bench_pair.worktree_state(tmp_path)[1] is True


def test_an_unknown_workload_is_refused_before_any_export_or_run(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pair, "export", lambda rev, target: calls.append("export"))
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: calls.append("run"))
    with pytest.raises(SystemExit) as info:
        bench_pair.main(["--parent", "HEAD", "--workload", "seasn", "--label", "x"])
    assert info.value.code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "invalid choice: 'seasn' (choose from 'season', 'oracle', 'cli')" in err


def test_a_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "season"}], "end_to_end": [], "per_layer": []}\n'
    )
    calls = []

    def run_once(checkout, env, workload, seed, seconds, trace):
        calls.append(checkout)
        if len(calls) == 3:
            raise subprocess.CalledProcessError(3, ["run.py"], "", "x" * 1000 + "boom\n")
        return result(5.0, 20.0)

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "export", lambda rev, target: "0" * 40)
    monkeypatch.setattr(bench_pair, "copy_tracked", lambda root, target: None)
    monkeypatch.setattr(bench_pair, "host_probe", lambda checkout, env: 30.0)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "worktree_state", lambda root: ("1" * 40, False))
    code = bench_pair.main(
        ["--parent", "HEAD~1", "--workload", "season", "--label", "x", "--pairs", "3"]
    )
    assert code == 1
    assert len(calls) == 3
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [(run["pair"], run["side"]) for run in report["runs"]] == [
        (0, "parent"), (0, "change"),
    ]
    # pair 1 runs the change first
    first = report["runs"][0]["seed"]
    assert report["failed"] == {
        "trace": 0, "pair": 1, "seed": first + 1, "side": "change",
        "exit_code": 3, "stderr": ("x" * 1000 + "boom\n")[-800:],
    }
    assert report["summary"]["trace0"]["latency_p50_ms"]["pairs"] == 1


@pytest.mark.parametrize(
    "stdout", ["", "12.5 ms\n", '{"correct": true}\nTraceback\n', "[1, 2]\n", "x" * 1000 + "\n"],
    ids=["empty", "not-json", "not-last", "not-an-object", "long"],
)
def test_a_malformed_result_line_keeps_the_runs_before_it(tmp_path, monkeypatch, stdout):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "season"}], "end_to_end": [], "per_layer": []}\n'
    )
    # a stand-in run.py that exits 0 without a JSON object on its last line
    stand_in = tmp_path / "stand-in"
    (stand_in / "perfbench").mkdir(parents=True)
    (stand_in / "perfbench" / "run.py").write_text(f"import sys\nsys.stdout.write({stdout!r})\n")
    real_run_once = bench_pair.run_once
    calls = []

    def run_once(checkout, env, workload, seed, seconds, trace):
        calls.append(checkout)
        if len(calls) == 3:
            return real_run_once(stand_in, env, workload, seed, seconds, trace)
        return result(5.0, 20.0)

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "export", lambda rev, target: "0" * 40)
    monkeypatch.setattr(bench_pair, "copy_tracked", lambda root, target: None)
    monkeypatch.setattr(bench_pair, "host_probe", lambda checkout, env: 30.0)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "worktree_state", lambda root: ("1" * 40, False))
    code = bench_pair.main(
        ["--parent", "HEAD~1", "--workload", "season", "--label", "x", "--pairs", "3"]
    )
    assert code == 1
    assert len(calls) == 3
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [(run["pair"], run["side"]) for run in report["runs"]] == [
        (0, "parent"), (0, "change"),
    ]
    first = report["runs"][0]["seed"]
    assert report["failed"] == {
        "trace": 0, "pair": 1, "seed": first + 1, "side": "change",
        "malformed": True, "stdout": stdout[-800:],
    }
    assert report["summary"]["trace0"]["latency_p50_ms"]["pairs"] == 1


def test_both_sides_run_copies_in_the_callers_environment(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "season"}], "end_to_end": [], "per_layer": []}\n'
    )
    (tmp_path / "code.py").write_text("x = 1\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "BENCHMARK.json", "code.py")
    git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "code.cpython-311.pyc").write_bytes(b"")
    # the change as it is on disk when the runs start
    (tmp_path / "code.py").write_text("x = 2\n")
    probes, calls = [], []

    def run_once(checkout, env, workload, seed, seconds, trace):
        calls.append((checkout, env, (checkout / "code.py").read_text(),
                      (checkout / "__pycache__").exists()))
        # an edit made while the runs go reaches neither the change nor the record
        (tmp_path / "code.py").write_text("x = 1\n")
        return result(5.0, 20.0)

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "host_probe", lambda checkout, env: probes.append(env) or 30.0)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    code = bench_pair.main(
        ["--parent", "HEAD", "--workload", "season", "--label", "x", "--pairs", "2"]
    )
    assert code == 0
    assert all(env == os.environ for env in probes + [call[1] for call in calls])
    # pair 0 runs the parent first, pair 1 the change
    parent, change = calls[:2]
    assert calls == [parent, change, change, parent]
    assert change[0] not in (tmp_path, parent[0])
    assert (parent[2], change[2]) == ("x = 1\n", "x = 2\n")
    assert not parent[3] and not change[3]
    report = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert report["change"] == {"head": git(tmp_path, "rev-parse", "HEAD"), "uncommitted_changes": True}
    assert bench_pair.worktree_state(tmp_path)[1] is False


def test_a_run_does_not_read_the_tools_peak_memory(tmp_path):
    # a stand-in run.py whose result is its own peak RSS
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, resource\n"
        "print(json.dumps({'peak': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n"
    )
    held = b"x" * (64 << 20)  # raises this process's peak RSS for good
    del held
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = bench_pair.run_once(tmp_path, dict(os.environ), "season", 1, 1, 0)["peak"]
    assert peak < own / 2

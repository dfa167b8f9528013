"""Benchmark a change against a parent revision and write ``BENCH_<label>.json``.

  python3 tools/bench_pair.py --parent REV --workload NAME --label LABEL
      [--pairs 10] [--trace-pairs 0]

``--workload`` is one of BENCHMARK.json's ``workloads``; any other name
exits 2 before anything is exported or run.

The parent revision's committed files are exported with ``git archive``
into a temporary directory, removed afterwards. Before the first run the
working tree's tracked files, as they are on disk, are copied beside
them as the change, and the tree's state is read then, so edits made
while the runs go neither reach the change nor mark the file. Both sides
run in the caller's environment, unchanged, from checkouts that start
without compiled bytecode. Each pair runs ``perfbench/run.py`` once on
each side, for BENCHMARK.json's ``run_seconds``, with the same fresh
seed, and alternates which side runs first; ``--trace-pairs`` more pairs
run with ``--trace 1`` for the per-layer metrics. Runs go one at a time,
each started from a small launcher process, so that its peak RSS is not
this tool's. Before each run the host is probed: the median wall time of
five bare ``python -c pass`` starts in that side's checkout. The host
switches between states whose speeds differ by 2x or more, so the probe
lets files from different states be read against each other. The file
records the machine, the seeds, every result line with its probe and,
per metric, each side's median and quartiles and the pairs the change
won; each end-to-end metric of BENCHMARK.json also gets the verdicts
``gain``, ``within_bound`` and ``unresolved`` (see ``verdicts``). If a
run exits non-zero, or its last stdout line is not a JSON object, no
more runs start: the file is written with the runs so far and a
``failed`` entry naming that run, with its exit code and the tail of its
stderr, or the tail of its malformed stdout, and the tool exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import secrets
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROBE_STARTS = 5


def machine() -> dict:
    """CPU model, cores, the Python and numpy versions, and whether
    ``PYTHONDONTWRITEBYTECODE`` is set, which makes every process compile
    what it imports."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def export(rev: str, target: Path) -> str:
    """Write the committed files of ``rev`` under ``target``; return its full id."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    target.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return sha


def copy_tracked(root: Path, target: Path) -> None:
    """Copy the files git tracks under ``root``, as they are on disk, to
    ``target``; tracked files deleted from the disk are left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


# Starts a command as its child and exits with its code. perfbench reads
# its peak RSS from getrusage, and Linux keeps a process's peak across
# exec, so a run started straight from this tool, which holds ~22 MB,
# reads at least that; a run started from the launcher does not.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


class MalformedResult(Exception):
    """A run exited 0, but its last stdout line is not a JSON object; the
    argument is the tail of its stdout."""


def run_once(checkout: Path, env: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``, started by ``LAUNCHER``;
    its last stdout line, parsed. Raises ``CalledProcessError`` if the run
    exits non-zero and ``MalformedResult`` if that line is no JSON object."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    proc.check_returncode()
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise MalformedResult(proc.stdout[-800:])
    return result


def host_probe(checkout: Path, env: dict) -> float:
    """Median wall time in ms of ``PROBE_STARTS`` bare interpreter starts
    in ``checkout`` with ``env``: how fast the host is right now."""
    times = []
    for _ in range(PROBE_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=checkout, env=env, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def probe_summary(runs: list[dict]) -> dict:
    """Each side's median and quartiles of the host probe over its runs."""
    return {
        side: _spread([run["host_probe_ms"] for run in runs if run["side"] == side])
        for side in SIDES
        if any(run["side"] == side for run in runs)
    }


def summarize(
    runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict:
    """Per trace mode and metric, over the pairs with both sides present:
    each side's median and quartiles, and the pairs the change won and lost.
    ``better`` maps a metric to "lower" or "higher"; wins are counted only
    for the metrics it names, and ties count for neither side. Untraced
    entries of the metrics in ``bounds``, which maps a metric to its
    relative bound, also get their ``verdicts``."""
    pairs: dict[tuple[int, int], dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault((run["trace"], run["pair"]), {})[run["side"]] = run["result"]["metrics"]
    values: dict[str, dict[str, list[tuple[float, float]]]] = {}
    units: dict[str, str] = {}
    for (trace, _), sides in sorted(pairs.items()):
        if set(sides) != set(SIDES):
            continue
        parent, change = sides["parent"], sides["change"]
        for name in parent.keys() & change.keys():
            units[name] = parent[name]["unit"]
            values.setdefault(f"trace{trace}", {}).setdefault(name, []).append(
                (parent[name]["value"], change[name]["value"])
            )
    summary: dict[str, dict] = {}
    for mode, metrics in values.items():
        for name, paired in sorted(metrics.items()):
            entry: dict = {"unit": units[name], "pairs": len(paired)}
            for side, column in zip(SIDES, zip(*paired)):
                entry[side] = _spread(list(column))
            sign = {"lower": -1, "higher": 1}.get(better.get(name, ""))
            if sign is not None:
                entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in paired)
                entry["change_losses"] = sum(sign * (c - p) < 0 for p, c in paired)
                if mode == "trace0" and name in (bounds or {}):
                    entry.update(verdicts(entry, paired, sign, bounds[name]))
            summary.setdefault(mode, {})[name] = entry
    return summary


def verdicts(entry: dict, paired: list[tuple[float, float]], sign: int, bound: float) -> dict:
    """The review rules for one end-to-end metric, given its summary
    ``entry``, its (parent, change) values per pair, ``sign`` -1 when lower
    is better and 1 when higher is, and its ``bound`` relative to the
    parent's median.

    - ``gain``: the change won at least 9 in 10 of the pairs, and its median
      beats the parent's by more than the parent's q3 - q1;
    - ``within_bound``: the change's median is no worse than the parent's by
      more than the bound;
    - ``unresolved``: the parent's q3 - q1 exceeds the bound, and not every
      change run beats every parent run.
    """
    parent, change = entry["parent"], entry["change"]
    spread = parent["q3"] - parent["q1"]
    allowed = bound * abs(parent["median"])
    gained = sign * (change["median"] - parent["median"])
    parents, changes = zip(*paired)
    return {
        "gain": 10 * entry["change_wins"] >= 9 * entry["pairs"] and gained > spread,
        "within_bound": gained >= -allowed,
        "unresolved": spread > allowed
        and min(sign * c for c in changes) <= max(sign * p for p in parents),
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def worktree_state(root: Path) -> tuple[str, bool]:
    """The commit checked out at ``root``, and whether its tracked files
    differ from it. Untracked files, such as the BENCH files this tool
    writes, do not count."""
    head, status = (
        subprocess.run(["git", *command], cwd=root, check=True, capture_output=True, text=True).stdout
        for command in (["rev-parse", "HEAD"], ["status", "--porcelain", "--untracked-files=no"])
    )
    return head.strip(), bool(status.strip())


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace-pairs", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    first = secrets.randbelow(10**6)
    plan = [(0, i) for i in range(args.pairs)] + [(1, i) for i in range(args.trace_pairs)]
    runs = []
    failed = None
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        sha = export(args.parent, checkouts["parent"])
        copy_tracked(ROOT, checkouts["change"])
        head, uncommitted = worktree_state(ROOT)
        env = dict(os.environ)
        schedule = [
            (trace, pair, side)
            for trace, pair in plan
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1])
        ]
        for trace, pair, side in schedule:
            seed = first + pair
            probe = host_probe(checkouts[side], env)
            try:
                result = run_once(checkouts[side], env, args.workload, seed, seconds, trace)
            except (subprocess.CalledProcessError, MalformedResult) as exc:
                # keep the runs so far: the report is written with this entry
                if isinstance(exc, MalformedResult):
                    outcome = {"malformed": True, "stdout": exc.args[0]}
                    why = "printed no JSON result"
                else:
                    outcome = {"exit_code": exc.returncode, "stderr": exc.stderr[-800:]}
                    why = f"exited {exc.returncode}"
                failed = {"trace": trace, "pair": pair, "seed": seed, "side": side, **outcome}
                print(f"{side} run of pair {pair} {why}", file=sys.stderr)
                break
            runs.append({
                "trace": trace, "pair": pair, "seed": seed, "side": side,
                "host_probe_ms": probe, "result": result,
            })
            print(
                f"trace {trace} pair {pair} seed {seed} {side}: correct {result['correct']},"
                f" probe {probe:.1f} ms",
                file=sys.stderr,
            )
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "label": args.label,
        "workload": args.workload,
        "seconds": seconds,
        "parent": {"rev": args.parent, "commit": sha},
        "change": {"head": head, "uncommitted_changes": uncommitted},
        "machine": machine(),
        "seeds": sorted({run["seed"] for run in runs}),
        "runs": runs,
        "host_probe_ms": probe_summary(runs),
        "summary": summarize(runs, better, bounds),
    }
    if failed is not None:
        report["failed"] = failed
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0 if failed is None else 1


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter helpers that run.py starts as child processes.

  child.py import                 time importing tableguess.cli; print JSON
  child.py setup WORKLOAD SEED    time import plus warm-up ops; print JSON

Before its timer starts, the import probe imports only ``sys`` and ``time``,
so it counts every module that tableguess.cli pulls in. The set-up probe
also imports ``workloads`` and ``seasons`` to generate its inputs, which load
nothing that tableguess imports (``tests/test_seasons.py`` checks this).
"""

import sys
import time


def probe_import() -> None:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import tableguess.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    loaded = len(sys.modules) - before
    import json

    print(json.dumps({"import_s": elapsed, "modules_loaded": loaded}))


def probe_setup(name: str, seed: int) -> None:
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    try:
        t0 = time.perf_counter()
        workload.load()
        workloads.warm_up(workload)
        elapsed = time.perf_counter() - t0
    finally:
        workload.close()
    import json

    print(json.dumps({"setup_s": elapsed}))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        probe_import()
    elif mode == "setup":
        probe_setup(argv[1], int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

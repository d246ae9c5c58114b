"""One workload's set-up in a fresh interpreter.

Imports mesa.cli, then loads the workload's inputs through mesa's public
loaders, and runs the script coverage check where the `mesa eval` path runs
it. Prints its own timings as one JSON line, with a timing of the
calibration kernel on this process's CPU; run.py times the whole process
from spawn to exit.

With --digest it then routes the first suite prompts as `mesa route` does
and prints a digest of the decisions instead: route_registry_10k's
cross-process determinism gate.

Usage: python3 perfbench/setup_probe.py CARDS SUITE SCRIPT [--per-slice N]
           [--coverage] [--digest]
"""

import argparse
import json
import time

t_start = time.perf_counter()
import mesa.cli  # noqa: E402,F401  (import cost is what is measured)

t_import = time.perf_counter()

from mesa import CONDITIONS, load_registry, load_script, load_suite  # noqa: E402

from calibration import kernel_seconds  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("cards")
    parser.add_argument("suite")
    parser.add_argument("script")
    parser.add_argument("--per-slice", type=int, default=None)
    parser.add_argument("--coverage", action="store_true")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    registry = load_registry(args.cards)
    t1 = time.perf_counter()
    suite = load_suite(args.suite, registry, expected_per_slice=args.per_slice)
    t2 = time.perf_counter()
    script = load_script(args.script)
    t3 = time.perf_counter()
    if args.coverage:
        missing = script.missing_keys(suite, [cond.name.value for cond in CONDITIONS])
        if missing:
            raise SystemExit(f"script misses {len(missing)} key(s), first {missing[0]}")
    t4 = time.perf_counter()
    if args.digest:
        from workloads import route_digest

        print(json.dumps({"digest": route_digest(registry, suite, script)}))
        return
    print(json.dumps({
        "import_s": t_import - t_start,
        "load_registry_ms": (t1 - t0) * 1e3,
        "load_suite_ms": (t2 - t1) * 1e3,
        "load_script_ms": (t3 - t2) * 1e3,
        "missing_keys_ms": (t4 - t3) * 1e3 if args.coverage else 0.0,
        "kernel_s": kernel_seconds(),
    }))


if __name__ == "__main__":
    main()

"""mesa's benchmark: run one workload and print its metrics.

Usage (from the root of a mesa checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
loop untraced for half the time and traced for the other half, and prints the
per-layer metrics, including the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A stamped
copy of the result goes to .bench_out/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SCHEMA = "mesa-perfbench-v1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "backend_calls_per_task": "count",
    "peak_rss_mb": "MB",
}

# Every per-layer metric a traced run reports. A layer the workload does not
# exercise reports 0.
PER_LAYER_UNITS = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.eval_wall_s": "s",
    "bench.load_suite_ms": "ms",
    "bench.run_matrix_ms": "ms",
    "bench.emit_text_ms": "ms",
    "bench.emit_machine_ms": "ms",
    "backend.load_script_ms": "ms",
    "backend.missing_keys_ms": "ms",
    "backend.calls.self_confidence": "count",
    "backend.calls.source_confidence": "count",
    "backend.calls.probe_signal": "count",
    "backend.calls.answer": "count",
    "backend.calls.self_report_tags": "count",
    "backend.scripted_call_us": "us",
    "backend.remote_client_us": "us",
    "backend.remote_attempts_per_call": "count",
    "backend.remote_wait_share": "ratio",
    "router.build_candidates_us": "us",
    "router.select_action_us": "us",
    "router.score_baseline_us": "us",
    "router.candidates_per_task": "count",
    "router.gated_per_task": "count",
    "probe.run_probe_calls_per_task": "count",
    "probe.pass_ratio": "ratio",
    "probe.gated_waste_ratio": "ratio",
    "dsl.eval_calls_per_task": "count",
    "dsl.eval_us_per_call": "us",
    "dsl.apply_when_match_ratio": "ratio",
    "cards.load_registry_ms": "ms",
    "cards.body_reads_per_task": "count",
    "cards.gated_body_read_ratio": "ratio",
    "confidence.decontaminate_calls_per_task": "count",
    "confidence.clamp_ratio": "ratio",
    "bank.append_ms_p50": "ms",
    "bank.append_ms_tail": "ms",
    "bank.record_ms_growth": "ratio",
    "bank.fsync_floor_ms": "ms",
    "bank.read_bank_ms": "ms",
    "bank.hypercorrection_ms": "ms",
    "bank.apply_updates_ms": "ms",
    "bank.correct_s": "s",
    "bank.bytes_per_entry": "B",
    "trace.overhead_ratio": "ratio",
}


def _git_sha() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(setup_s: float, loop) -> dict[str, float]:
    blocks = loop.blocks()
    return {
        "setup_s": setup_s,
        "tasks_per_s": statistics.median(rate for rate, _, _ in blocks),
        "task_ms_p50": statistics.median(p50 for _, p50, _ in blocks) * 1e3,
        "task_ms_tail": statistics.median(tail for _, _, tail in blocks) * 1e3,
        "backend_calls_per_task": loop.calls / loop.tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict, int]:
    """Run set-up, the timed loop(s) and every gate; return (metrics, stamp facts, attempted)."""
    from tracer import Tracer, instrument, layer_metrics
    from workloads import GateFailure, measure_setup

    setup_s, setup_layers = measure_setup(workload.probe_args())
    workload.prepare()
    facts = {"tail_percentile": workload.tail * 100, "block_tasks": workload.block}

    def checked(loop):
        if loop.errors:
            raise GateFailure(f"{len(loop.errors)} task(s) failed, first: {loop.errors[0]}",
                              loop.attempted, len(loop.errors))
        return loop

    if not trace:
        loop = checked(workload.loop(seconds, None))
        factors = workload.speed.factors  # empty where nothing is scaled
        facts.update(tasks=loop.tasks)
        if factors:
            facts.update(speed_factor_median=statistics.median(factors),
                         speed_factor_range=[min(factors), max(factors)])
        return end_to_end(setup_s, loop), facts, loop.attempted

    plain = checked(workload.loop(seconds / 2, None))
    tracer = Tracer()
    with instrument(tracer):
        traced = checked(workload.loop(seconds / 2, tracer))
    spans = OUT / "spans" / f"{workload.name}-seed{workload.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans, {"schema": SCHEMA, "workload": workload.name, "seed": workload.seed})
    measured = {**setup_layers, **layer_metrics(tracer), **workload.extras(plain)}
    measured["trace.overhead_ratio"] = (end_to_end(0.0, traced)["tasks_per_s"]
                                        / end_to_end(0.0, plain)["tasks_per_s"])
    metrics = {name: measured.get(name, 0.0) for name in PER_LAYER_UNITS}
    facts.update(tasks=plain.tasks, traced_tasks=traced.tasks,
                 spans_file=str(spans.relative_to(ROOT)), spans_kept=len(tracer.spans),
                 spans_dropped=tracer.dropped)
    return metrics, facts, plain.attempted + traced.attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one mesa benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mesa" / "__init__.py").is_file():
        print(f"perfbench: no mesa sources under {src}; run from a mesa checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mesa

    if Path(mesa.__file__).resolve().parent != (src / "mesa").resolve():
        print(f"perfbench: imported mesa from {mesa.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import BANK_ENTRIES, REMOTE_DELAY_S, WORKLOADS, GateFailure

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    OUT.mkdir(exist_ok=True)

    correct, error = True, None
    attempted = failed = 0
    metrics, facts = {}, {}
    try:
        workload = WORKLOADS[args.workload](args.seed, OUT)
        facts.update(workload.facts())
        metrics, more, attempted = measure(workload, args.seconds, bool(args.trace))
        facts.update(more)
    except GateFailure as exc:
        correct, error = False, str(exc)
        attempted, failed = exc.attempted, exc.failed

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stamp = {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "remote_delay_ms": REMOTE_DELAY_S * 1e3,
        "bank_entries_per_round": BANK_ENTRIES,
        "error": error,
        "error_rate": failed / max(1, attempted),
        **facts,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(stamp, indent=2) + "\n", encoding="utf-8")

    if error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} error_rate={stamp['error_rate']:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

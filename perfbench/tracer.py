"""Spans around mesa's public calls, taken from outside the package.

`instrument` swaps wrappers into the module attributes that mesa's own
callers resolve at call time (router, probe and bench), proxies the backend
and counts body reads through CardRegistry.with_body_loader. Nothing in
src/ changes.

Each span records its id, parent, task id, name, start and end. Self time is
accumulated as spans close: a span's duration minus the part its children
cover. The first `keep` spans are held in memory and written out at the end;
later ones still count towards the per-layer totals.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from mesa import bench, probe, router

BACKEND_OPS = ("self_confidence", "source_confidence", "probe_signal", "answer", "self_report_tags")


class Tracer:
    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.tasks = 0
        self.task_s = 0.0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._probed: set[str] = set()
        self._bodies: set[str] = set()

    def span(self, name: str, fn, on_result=None, task: bool = False):
        """Wrap fn so every call records a span; on_result sees (result, args)."""
        stack = self._stack

        def traced(*args, **kwargs):
            if task:
                self.tasks += 1
                self._probed, self._bodies = set(), set()
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                if task:
                    self.task_s += elapsed
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if len(self.spans) < self.keep:
                    self.spans.append((frame[0], parent, self.tasks, name, start, end))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def registry(self, registry):
        """The same cards, with every body read a span that is counted per task."""
        def on_read(_result, args):
            self._bodies.add(args[0].id)

        return registry.with_body_loader(self.span("cards.read_body", registry.body_loader, on_read))

    # -- result hooks --------------------------------------------------------

    def _on_apply_when(self, result, _args):
        self.counts["dsl.apply_when_true"] += bool(result)

    def _on_probe(self, result, args):
        self.counts["probe.passed"] += bool(result.passed)
        self._probed.add(args[1].id)

    def _on_candidates(self, result, _args):
        self.counts["router.candidates"] += len(result[0])

    def _on_select(self, result, _args):
        gated = set(result.gated_cards)
        self.counts["router.gated"] += len(gated)
        self.counts["probe.gated_probes"] += len(gated & self._probed)
        self.counts["cards.gated_body_reads"] += len(gated & self._bodies)

    def _on_decontaminate(self, result, args):
        self.counts["confidence.clamped"] += result != args[1]

    def write(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, task, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "task": task,
                                     "name": name, "start": start, "end": end}) + "\n")


class TracedBackend:
    """A backend whose five queries are spans named backend.<op>."""

    def __init__(self, tracer: Tracer, inner) -> None:
        for op in BACKEND_OPS:
            setattr(self, op, tracer.span(f"backend.{op}", getattr(inner, op)))


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers into mesa's modules; restore the originals on exit."""
    originals = [
        (router, "eval_predicate", "dsl.apply_when", tracer._on_apply_when, False),
        (probe, "eval_predicate", "dsl.cheap_probe", None, False),
        (router, "run_probe", "probe.run_probe", tracer._on_probe, False),
        (router, "build_candidates", "router.build_candidates", tracer._on_candidates, False),
        (router, "select_action", "router.select_action", tracer._on_select, False),
        (router, "score_baseline", "router.score_baseline", None, False),
        (router, "decontaminate", "confidence.decontaminate", tracer._on_decontaminate, False),
        (bench, "run_trajectory", "router.run_trajectory", None, True),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in originals]
    scripted = bench.ScriptedBackend
    try:
        for module, attr, name, hook, task in originals:
            setattr(module, attr, tracer.span(name, getattr(module, attr), hook, task))
        bench.ScriptedBackend = lambda *args: TracedBackend(tracer, scripted(*args))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        bench.ScriptedBackend = scripted


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, ratios and self times from one traced phase."""
    stats, counts = tracer.stats, tracer.counts
    tasks = max(1, tracer.tasks)

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_us(name: str) -> float:
        entry = stats.get(name)
        return entry[2] / entry[0] * 1e6 if entry else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    backend_calls = sum(calls(f"backend.{op}") for op in BACKEND_OPS)
    backend_s = sum(total_s(f"backend.{op}") for op in BACKEND_OPS)
    transports = calls("backend.transport")
    evals = calls("dsl.apply_when") + calls("dsl.cheap_probe")
    probes = calls("probe.run_probe")
    bodies = calls("cards.read_body")
    metrics = {f"backend.calls.{op}": calls(f"backend.{op}") / tasks for op in BACKEND_OPS}
    metrics.update({
        "backend.scripted_call_us": 0.0 if transports else ratio(backend_s, backend_calls) * 1e6,
        "backend.remote_client_us":
            ratio(backend_s - total_s("backend.transport"), backend_calls) * 1e6 if transports else 0.0,
        "backend.remote_attempts_per_call": ratio(transports, backend_calls),
        "backend.remote_wait_share": ratio(total_s("backend.transport"), tracer.task_s),
        "router.build_candidates_us": self_us("router.build_candidates"),
        "router.select_action_us": self_us("router.select_action"),
        "router.score_baseline_us": self_us("router.score_baseline"),
        "router.candidates_per_task": counts["router.candidates"] / tasks,
        "router.gated_per_task": counts["router.gated"] / tasks,
        "probe.run_probe_calls_per_task": probes / tasks,
        "probe.pass_ratio": ratio(counts["probe.passed"], probes),
        "probe.gated_waste_ratio": ratio(counts["probe.gated_probes"], probes),
        "dsl.eval_calls_per_task": evals / tasks,
        "dsl.eval_us_per_call":
            ratio(total_s("dsl.apply_when") + total_s("dsl.cheap_probe"), evals) * 1e6,
        "dsl.apply_when_match_ratio": ratio(counts["dsl.apply_when_true"], calls("dsl.apply_when")),
        "cards.body_reads_per_task": bodies / tasks,
        "cards.gated_body_read_ratio": ratio(counts["cards.gated_body_reads"], bodies),
        "confidence.decontaminate_calls_per_task": calls("confidence.decontaminate") / tasks,
        "confidence.clamp_ratio": ratio(counts["confidence.clamped"], calls("confidence.decontaminate")),
    })
    return metrics

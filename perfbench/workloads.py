"""The four workloads of mesa's benchmark.

Every workload is a closed loop with one caller in one process: the next
task starts only when the previous one has returned. Each one measures
set-up in fresh interpreters, loads its inputs through mesa's public
loaders, checks its outputs against an independent reference, and times
only calls into mesa's public functions.

    eval_scripted       shipped suite x 7 conditions through run_matrix
    remote_latency      same tasks through RemoteBackend and a fake endpoint
    route_registry_10k  `mesa route`-style decisions over 10,000 cards
    bank_journal        route, then append every trajectory to the failure bank
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from mesa import (
    CONDITIONS,
    ActionVariant,
    BankConfig,
    BankEntry,
    Outcome,
    RemoteBackend,
    RemoteConfig,
    RoutingConfig,
    ScriptedBackend,
    apply_updates,
    emit_report,
    hypercorrection_updates,
    load_registry,
    load_script,
    load_suite,
    parse_report,
    read_bank,
    record,
)
from mesa import bench, router
from mesa.bench import SliceName
from mesa.errors import MesaError
from mesa.router import context_for_item

from calibration import Speed, scaled_by_own_kernel
from fake_remote import FakeChatEndpoint, FakeEndpointError
from tracer import BACKEND_OPS, TracedBackend

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED = ROOT / "src" / "mesa" / "data"

REMOTE_DELAY_S = 0.002  # fake endpoint latency per request
FSYNC_NOMINAL_S = 0.0001  # what one fsync counts for in a bank_journal task
BANK_ENTRIES = 1500  # journal size each bank_journal round grows to
SETUP_REPEATS = 7  # fresh-interpreter set-ups per run; setup_s is their median
EVAL_REPEATS = 3  # `mesa eval` subprocesses per eval_scripted run
TOKEN_ENV = "MESA_PERFBENCH_TOKEN"
DIGEST_PROMPTS = 16  # prompts a second process routes for the determinism gate

class GateFailure(Exception):
    """A correctness gate failed; the run reports no numbers."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def readme_table() -> str:
    """The accuracy table README.md shows after its `mesa eval` example: the behaviour contract."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"```sh\nmesa eval\b[^`]*```\s*```\n(.*?)```", readme, re.DOTALL)
    gate(match is not None, "README.md shows no table after its `mesa eval` example")
    return match.group(1)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, p in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered), 9)))
    return ordered[rank - 1]


def run_python(args: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter from the checkout root; return (wall seconds, stdout)."""
    cmd = [sys.executable, *args]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=150)
    elapsed = perf_counter() - start
    gate(proc.returncode == 0,
         f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def measure_setup(probe_args: list[str]) -> tuple[float, dict[str, float]]:
    """Median fresh-interpreter set-up, plus the per-layer split of it.

    Each set-up process times the calibration kernel on its own CPU before it
    exits; its wall time, less that kernel run, is scaled by its own factor.
    """
    probe = [str(HERE / "setup_probe.py"), *probe_args]
    run_python(probe)  # warm-up: byte-code caches, page cache
    walls, parts = [], []
    for _ in range(SETUP_REPEATS):
        wall, out = run_python(probe)
        part = json.loads(out)
        walls.append(scaled_by_own_kernel(wall, part["kernel_s"]))
        parts.append(part)
    floor = statistics.median(run_python(["-c", "pass"])[0] for _ in range(SETUP_REPEATS))
    layers = {
        "cli.interpreter_s": floor,
        "cli.import_s": statistics.median(p["import_s"] for p in parts),
        "cards.load_registry_ms": statistics.median(p["load_registry_ms"] for p in parts),
        "bench.load_suite_ms": statistics.median(p["load_suite_ms"] for p in parts),
        "backend.load_script_ms": statistics.median(p["load_script_ms"] for p in parts),
        "backend.missing_keys_ms": statistics.median(p["missing_keys_ms"] for p in parts),
    }
    return statistics.median(walls), layers


@dataclass
class Loop:
    """What one timed closed loop produced.

    Task times are folded into per-block summaries as blocks fill, so the
    benchmark's own memory does not grow with the number of tasks.
    """

    block: int | None  # tasks per block; None makes the whole run one block
    tail: float  # percentile summarised as each block's tail
    tasks: int = 0
    calls: int = 0  # backend calls made by completed tasks
    attempted: int = 0
    errors: list[str] = field(default_factory=list)  # one per failed task or check
    extra: dict = field(default_factory=dict)
    summaries: list[tuple[float, float, float]] = field(default_factory=list)
    _current: list[float] = field(default_factory=list)

    def record(self, seconds: float, factor: float) -> None:
        """Add one completed task's time, scaled by the machine-speed factor."""
        self.tasks += 1
        self._current.append(seconds * factor)
        if len(self._current) == self.block:
            self.summaries.append(self._summary())
            self._current = []

    def _summary(self) -> tuple[float, float, float]:
        times = self._current
        return (len(times) / sum(times), statistics.median(times), percentile(times, self.tail))

    def blocks(self) -> list[tuple[float, float, float]]:
        """(tasks/s, p50 s, tail s) of every full block; a short run makes one block."""
        return self.summaries or [self._summary()]


class CountingBackend:
    """Forwards the five backend queries and counts them."""

    def __init__(self, inner) -> None:
        self.calls = 0
        for op in BACKEND_OPS:
            setattr(self, op, self._counted(getattr(inner, op)))

    def _counted(self, method):
        def counted(*args):
            self.calls += 1
            return method(*args)

        return counted


def shuffled_passes(rng: random.Random, population: list):
    """Endless stream: the population in a fresh seeded order each pass."""
    while True:
        order = list(population)
        rng.shuffle(order)
        yield from order


def balanced_pairs(rng: random.Random, suite):
    """Endless stream of (item, condition) pairs covering the suite once per cycle.

    One item from each slice in turn, each under all seven conditions in a
    seeded order, so any stretch of the stream holds slices and conditions in
    near-equal shares and a run's task mix does not depend on where it stops.
    """
    by_slice = [[item for item in suite if item.slice is s] for s in SliceName]
    while True:
        for items in by_slice:
            rng.shuffle(items)
        for row in zip(*by_slice):
            for item in row:
                conditions = list(CONDITIONS)
                rng.shuffle(conditions)
                for cond in conditions:
                    yield item, cond


def implicated_card(rec) -> str | None:
    chosen = rec.decisions[-1].chosen
    return chosen.card_id if chosen.variant is ActionVariant.LOAD_SKILL else None


class Workload:
    name = ""
    # Task-time statistics are taken per block of this many consecutive tasks;
    # None makes the whole run one block. `tail` is the percentile reported
    # as task_ms_tail, with at least 10 samples of a block beyond it.
    block: int | None = None
    tail = 0.99
    calibrate_every_s = 0.05  # seconds between machine-speed calibrations

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.rng = random.Random(seed)
        self.speed = Speed(self.calibrate_every_s)

    def probe_args(self) -> list[str]:
        return [str(SHIPPED / "cards.json"), str(SHIPPED / "suite.json"),
                str(SHIPPED / "script.json"), "--per-slice", "50"]

    def load_shipped(self) -> None:
        self.registry = load_registry(SHIPPED / "cards.json")
        self.suite = load_suite(SHIPPED / "suite.json", self.registry)
        self.script = load_script(SHIPPED / "script.json")

    def scripted_reference(self) -> None:
        """Outcome and backend call count of every (item, condition) pair, scripted."""
        self.reference: dict[tuple[str, str], tuple] = {}
        for cond in CONDITIONS:
            backend = ScriptedBackend(self.script, self.suite, cond.name.value)
            for item in self.suite:
                counting = CountingBackend(backend)
                rec = router.run_trajectory(item, self.registry, counting, RoutingConfig(), cond)
                gate(rec.diagnostic is None, f"scripted {item.id}/{cond.name.value}: {rec.diagnostic}")
                self.reference[item.id, cond.name.value] = (
                    (rec.outcome, rec.final_answer_class, rec.answer), counting.calls)

    def prepare(self) -> None:
        raise NotImplementedError

    def loop(self, seconds: float, tracer) -> Loop:
        raise NotImplementedError

    def extras(self, loop: Loop) -> dict[str, float]:
        """Per-layer numbers the workload measures directly rather than from spans."""
        return {}

    def facts(self) -> dict:
        """Facts about the generated inputs, for the result file."""
        return {}


# ---------------------------------------------------------------------------


class EvalScripted(Workload):
    """The shipped suite under all 7 conditions, in a seeded item order per pass."""

    name = "eval_scripted"
    block = 150 * len(CONDITIONS)  # one pass of run_matrix
    # A pass's ~15 slowest tasks are collector pauses and interrupts, and p98
    # sits at their edge; p95 is the slowest percentile inside the work itself.
    tail = 0.95

    def probe_args(self) -> list[str]:
        return super().probe_args() + ["--coverage"]

    def prepare(self) -> None:
        self.load_shipped()
        self.scripted_reference()
        self.calls_per_pass = sum(calls for _, calls in self.reference.values())
        self.table = bench.run_matrix(self.suite, self.registry, self.script)
        reference = readme_table()
        gate(emit_report(self.table, "text") == reference,
             "run_matrix text report differs from README's reference table")
        gate(parse_report(emit_report(self.table, "machine")) == self.table,
             "machine report does not round-trip through parse_report")
        self.eval_walls = []
        for _ in range(EVAL_REPEATS):
            wall, out = run_python(["-m", "mesa.cli", "eval",
                                    "--suite", str(SHIPPED / "suite.json"),
                                    "--cards", str(SHIPPED / "cards.json"),
                                    "--script", str(SHIPPED / "script.json")])
            gate(out == reference, "`mesa eval` printed a different table")
            self.eval_walls.append(wall)

    def loop(self, seconds: float, tracer) -> Loop:
        registry = tracer.registry(self.registry) if tracer else self.registry
        loop = Loop(self.block, self.tail)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            order = list(self.suite)
            self.rng.shuffle(order)
            factor = self.speed.factor()
            stamps = [perf_counter()]
            table = bench.run_matrix(order, registry, self.script,
                                     on_record=lambda _rec: stamps.append(perf_counter()))
            wall = perf_counter() - stamps[0]
            factor = (factor + self.speed.factor()) / 2
            for start, end in zip(stamps, stamps[1:]):
                loop.record(end - start, factor)
            for outcome in table.items:
                if outcome.diagnostic is not None:
                    loop.errors.append(f"{outcome.item_id}/{outcome.condition}: {outcome.diagnostic}")
            if table.cells != self.table.cells:
                loop.errors.append("a shuffled pass changed the accuracy table")
            loop.attempted += len(table.items)
            loop.calls += self.calls_per_pass
            loop.extra.setdefault("matrix_s", []).append(wall)
        return loop

    def extras(self, loop: Loop) -> dict[str, float]:
        def median_ms(fn, repeats=20) -> float:
            times = []
            for _ in range(repeats):
                start = perf_counter()
                fn()
                times.append(perf_counter() - start)
            return statistics.median(times) * 1e3

        return {
            "cli.eval_wall_s": statistics.median(self.eval_walls),
            "bench.run_matrix_ms": statistics.median(loop.extra["matrix_s"]) * 1e3,
            "bench.emit_text_ms": median_ms(lambda: emit_report(self.table, "text")),
            "bench.emit_machine_ms": median_ms(lambda: emit_report(self.table, "machine")),
        }


# ---------------------------------------------------------------------------


class RemoteLatency(Workload):
    """Every (item, condition) pair through RemoteBackend and the fake endpoint."""

    name = "remote_latency"
    tail = 0.98

    def prepare(self) -> None:
        self.load_shipped()
        self.scripted_reference()
        os.environ.setdefault(TOKEN_ENV, "perfbench")
        self.config = RemoteConfig(endpoint="http://localhost/v1/chat/completions",
                                   auth_env=TOKEN_ENV, model="fake")
        self.stream = balanced_pairs(self.rng, self.suite)

    def loop(self, seconds: float, tracer) -> Loop:
        endpoints, backends = {}, {}
        for cond in CONDITIONS:
            endpoint = FakeChatEndpoint(self.script, self.suite, cond.name.value, REMOTE_DELAY_S)
            endpoints[cond.name] = endpoint
            transport = tracer.span("backend.transport", endpoint) if tracer else endpoint
            backend = RemoteBackend(self.config, transport)
            backends[cond.name] = TracedBackend(tracer, backend) if tracer else backend
        registry = tracer.registry(self.registry) if tracer else self.registry
        run = router.run_trajectory
        if tracer:
            run = tracer.span("router.run_trajectory", run, task=True)
        cfg = RoutingConfig()
        loop = Loop(self.block, self.tail)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            item, cond = next(self.stream)
            loop.attempted += 1
            endpoint = endpoints[cond.name]
            before = endpoint.requests
            endpoint.sleeps.clear()
            start = perf_counter()
            try:
                rec = run(item, registry, backends[cond.name], cfg, cond)
            except (MesaError, FakeEndpointError) as exc:
                loop.errors.append(f"{item.id}/{cond.name.value}: {exc}")
                continue
            elapsed = perf_counter() - start
            calls = endpoint.requests - before
            # A loaded host oversleeps the endpoint's delay, which is the fake's
            # error, not mesa's: that excess is taken out and nothing is scaled.
            loop.record(elapsed - endpoint.oversleep_s(), 1.0)
            loop.calls += calls
            key = (item.id, cond.name.value)
            outcome = (rec.outcome, rec.final_answer_class, rec.answer)
            expected, expected_calls = self.reference[key]
            if rec.diagnostic is not None:
                loop.errors.append(f"{key}: {rec.diagnostic}")
            elif outcome != expected:
                loop.errors.append(f"{key}: remote outcome {outcome} != scripted {expected}")
            elif calls != expected_calls:
                loop.errors.append(f"{key}: {calls} requests, scripted made {expected_calls} calls")
        return loop


# ---------------------------------------------------------------------------


def _decision_key(decision, traces) -> list:
    return [decision.chosen.variant.value, decision.chosen.card_id,
            sorted((k, repr(v)) for k, v in decision.scores.items()),
            list(decision.gated_cards),
            [(t.card_id, t.stage.value, t.passed) for t in traces]]


def route_digest(registry, suite, script) -> str:
    """Route the first DIGEST_PROMPTS suite prompts over the whole registry; hash the decisions."""
    backend = ScriptedBackend(script, suite, "full")
    cfg = RoutingConfig()
    digest = hashlib.sha256()
    for item in suite[:DIGEST_PROMPTS]:
        ctx = context_for_item(item)
        candidates, cv, traces = router.build_candidates(ctx, registry, backend, cfg, True, None)
        decision = router.select_action(ctx, candidates, cv, cfg, registry)
        digest.update(json.dumps(_decision_key(decision, traces)).encode())
    return digest.hexdigest()


class RouteRegistry10k(Workload):
    """`mesa route` decisions over a seeded 10,000-card registry, condition full."""

    name = "route_registry_10k"
    block = 100  # one shuffled pass over registry_gen.PROMPT_COUNT prompts
    tail = 0.90

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        self.dir = out / "route10k"
        _, shares = run_python([str(HERE / "registry_gen.py"), "--seed", str(seed),
                                "--out", str(self.dir)])
        self.shares = json.loads(shares)

    def probe_args(self) -> list[str]:
        return [str(self.dir / name) for name in ("cards.json", "suite.json", "script.json")]

    def prepare(self) -> None:
        self.registry = load_registry(self.dir / "cards.json")
        self.suite = load_suite(self.dir / "suite.json", self.registry, expected_per_slice=None)
        self.script = load_script(self.dir / "script.json")
        self.backend = ScriptedBackend(self.script, self.suite, "full")
        self.contexts = [context_for_item(item) for item in self.suite]
        self.expected = json.loads((self.dir / "expected.json").read_text(encoding="utf-8"))["prompts"]
        self.first: dict[int, tuple] = {}  # each prompt's first decision in this run
        _, out = run_python([str(HERE / "setup_probe.py"), *self.probe_args(), "--digest"])
        gate(json.loads(out)["digest"] == route_digest(self.registry, self.suite, self.script),
             "decisions differ between two processes for the same seed")
        self.stream = shuffled_passes(self.rng, list(range(len(self.suite))))

    def _check(self, index: int, decision, traces) -> str | None:
        want = self.expected[index]
        if [t.card_id for t in traces] != want["matched"]:
            return "matched cards differ from the generator's"
        if [t.card_id for t in traces if t.passed] != want["passed"]:
            return "passed probes differ from the generator's"
        if list(decision.gated_cards) != want["gated"]:
            return "gated cards differ from the generator's"
        if (decision, traces) != self.first.setdefault(index, (decision, traces)):
            return "decision differs from this prompt's first decision"
        return None

    def loop(self, seconds: float, tracer) -> Loop:
        registry = tracer.registry(self.registry) if tracer else self.registry
        # Counting forwards each query through one extra call, about 0.2% of a task.
        backend = CountingBackend(TracedBackend(tracer, self.backend) if tracer else self.backend)
        cfg = RoutingConfig()

        def route(ctx):
            candidates, cv, traces = router.build_candidates(ctx, registry, backend, cfg, True, None)
            return router.select_action(ctx, candidates, cv, cfg, registry), traces

        if tracer:
            route = tracer.span("task", route, task=True)
        loop = Loop(self.block, self.tail)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            index = next(self.stream)
            loop.attempted += 1
            calls = backend.calls
            factor = self.speed.factor()
            start = perf_counter()
            try:
                decision, traces = route(self.contexts[index])
            except MesaError as exc:
                loop.errors.append(f"prompt {index}: {exc}")
                continue
            loop.record(perf_counter() - start, (factor + self.speed.factor()) / 2)
            loop.calls += backend.calls - calls
            # Checked at once rather than kept, so the heap the collector
            # walks does not grow with the run.
            problem = self._check(index, decision, traces)
            if problem:
                loop.errors.append(f"prompt {index}: {problem}")
        return loop

    def facts(self) -> dict:
        return {"registry": self.shares}


# ---------------------------------------------------------------------------


class FsyncClock:
    """While installed, times every os.fsync and os.fdatasync, including those inside mesa.bank."""

    SYNCS = ("fsync", "fdatasync")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def _timed(self, real):
        def timed(fd: int) -> None:
            start = perf_counter()
            try:
                real(fd)
            finally:
                self.seconds += perf_counter() - start
                self.calls += 1

        return timed

    def __enter__(self) -> "FsyncClock":
        self._real = {name: getattr(os, name) for name in self.SYNCS}
        for name, real in self._real.items():
            setattr(os, name, self._timed(real))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, real in self._real.items():
            setattr(os, name, real)


class BankJournal(Workload):
    """Route scripted pairs and append each trajectory to a fresh journal, then correct."""

    name = "bank_journal"
    block = BANK_ENTRIES  # one journal round
    tail = 0.99
    # Sub-millisecond tasks: at 0.05 s the calibrations take ~4% of a round,
    # and run-to-run spreads measured no better than at 0.1 s.
    calibrate_every_s = 0.1

    def prepare(self) -> None:
        self.load_shipped()
        self.scripted_reference()
        self.backends = {cond.name: ScriptedBackend(self.script, self.suite, cond.name.value)
                         for cond in CONDITIONS}
        self.dir = self.out / "bank_journal"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.stream = balanced_pairs(self.rng, self.suite)

    def loop(self, seconds: float, tracer) -> Loop:
        registry = tracer.registry(self.registry) if tracer else self.registry
        backends = {k: TracedBackend(tracer, b) for k, b in self.backends.items()} if tracer else self.backends
        run, append = router.run_trajectory, record
        if tracer:
            run = tracer.span("router.run_trajectory", run)
            append = tracer.span("bank.record", append)

        def task(item, cond, journal):
            rec = run(item, registry, backends[cond.name], RoutingConfig(), cond)
            start = perf_counter()
            seq = append(BankEntry(trajectory=rec, implicated_card=implicated_card(rec)), journal)
            return rec, seq, perf_counter() - start

        if tracer:
            task = tracer.span("task", task, task=True)
        loop = Loop(self.block, self.tail)
        loop.extra["rounds"] = []
        deadline = perf_counter() + seconds
        with FsyncClock() as fsync:
            while perf_counter() < deadline:
                loop.extra["rounds"].append(self._round(loop, task, deadline, fsync))
        return loop

    def _round(self, loop: Loop, task, deadline: float, fsync: FsyncClock) -> dict:
        journal = self.dir / "journal.jsonl"
        journal.unlink(missing_ok=True)
        recorded, appends = [], []
        synced_before = fsync.calls
        while len(recorded) < BANK_ENTRIES and perf_counter() < deadline:
            item, cond = next(self.stream)
            loop.attempted += 1
            synced, synced_s = fsync.calls, fsync.seconds
            factor = self.speed.factor()
            start = perf_counter()
            try:
                rec, seq, append_s = task(item, cond, journal)
            except MesaError as exc:
                loop.errors.append(f"{item.id}/{cond.name.value}: {exc}")
                continue
            elapsed = perf_counter() - start
            factor = (factor + self.speed.factor()) / 2
            # Sync latency on a shared disk follows other tenants' I/O, so each
            # sync call counts at a nominal cost and the rest of the task is
            # scaled as CPU work. bank.append_ms_* keep the real times.
            loop.record((elapsed - (fsync.seconds - synced_s)) * factor
                        + (fsync.calls - synced) * FSYNC_NOMINAL_S, 1.0)
            loop.calls += self.reference[item.id, cond.name.value][1]
            if rec.diagnostic is not None:
                loop.errors.append(f"{item.id}/{cond.name.value}: {rec.diagnostic}")
            gate(seq == len(recorded), f"record returned {seq}, expected {len(recorded)}")
            recorded.append(rec)
            appends.append(append_s)

        # A sync call FsyncClock does not see would be timed as CPU work above.
        gate(not recorded or fsync.calls > synced_before,
             "the journal grew but no fsync or fdatasync was observed")
        cards = self.dir / "cards.json"
        shutil.copyfile(SHIPPED / "cards.json", cards)
        t0 = perf_counter()
        entries = read_bank(journal)
        t1 = perf_counter()
        updates = hypercorrection_updates(entries, BankConfig(), self.registry)
        t2 = perf_counter()
        apply_updates(cards, updates)
        t3 = perf_counter()

        gate([(e.trajectory.item_id, e.trajectory.condition) for e in entries]
             == [(r.item_id, r.condition) for r in recorded],
             "read_bank did not return every appended entry in sequence")
        trust = {card.id: card.source_trust for card in self.registry}
        threshold = BankConfig().high_confidence_threshold
        for rec in recorded:
            card = implicated_card(rec)
            if card and rec.outcome is Outcome.INCORRECT and rec.terminal_confidence >= threshold:
                trust[card] *= 1.0 - BankConfig().decrement_factor
        written = {c["id"]: c["source_trust"]
                   for c in json.loads(cards.read_text(encoding="utf-8"))["cards"]}
        gate(written == trust, "apply_updates wrote unexpected trust values")
        tenth = BANK_ENTRIES // 10
        return {
            "full": len(recorded) == BANK_ENTRIES,
            "append_p50_s": statistics.median(appends) if appends else 0.0,
            "append_tail_s": percentile(appends, self.tail) if appends else 0.0,
            # median append of the round's last tenth over its first tenth
            "growth": (statistics.median(appends[-tenth:]) / statistics.median(appends[:tenth])
                       if len(appends) >= 2 * tenth else None),
            "read_bank_s": t1 - t0,
            "hypercorrection_s": t2 - t1,
            "apply_updates_s": t3 - t2,
            "bytes_per_entry": journal.stat().st_size / max(1, len(recorded)),
        }

    def extras(self, loop: Loop) -> dict[str, float]:
        rounds = [r for r in loop.extra["rounds"] if r["full"]] or loop.extra["rounds"]
        growth = [r["growth"] for r in rounds if r["growth"] is not None]
        bytes_per_entry = statistics.median(r["bytes_per_entry"] for r in rounds)
        return {
            "bank.append_ms_p50": statistics.median(r["append_p50_s"] for r in rounds) * 1e3,
            "bank.append_ms_tail": statistics.median(r["append_tail_s"] for r in rounds) * 1e3,
            "bank.record_ms_growth": statistics.median(growth) if growth else 0.0,
            "bank.fsync_floor_ms": self._fsync_floor(int(bytes_per_entry)),
            "bank.read_bank_ms": statistics.median(r["read_bank_s"] for r in rounds) * 1e3,
            "bank.hypercorrection_ms": statistics.median(r["hypercorrection_s"] for r in rounds) * 1e3,
            "bank.apply_updates_ms": statistics.median(r["apply_updates_s"] for r in rounds) * 1e3,
            "bank.correct_s": statistics.median(
                r["read_bank_s"] + r["hypercorrection_s"] + r["apply_updates_s"] for r in rounds),
            "bank.bytes_per_entry": bytes_per_entry,
        }

    def _fsync_floor(self, size: int, repeats: int = 50) -> float:
        """Median ms of one append of `size` bytes plus fsync, on the journal's filesystem."""
        path = self.dir / "fsync_floor.bin"
        line = b"x" * (size - 1) + b"\n"
        times = []
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        try:
            for _ in range(repeats):
                start = perf_counter()
                os.write(fd, line)
                os.fsync(fd)
                times.append(perf_counter() - start)
        finally:
            os.close(fd)
        return statistics.median(times) * 1e3


WORKLOADS = {cls.name: cls for cls in (EvalScripted, RemoteLatency, RouteRegistry10k, BankJournal)}

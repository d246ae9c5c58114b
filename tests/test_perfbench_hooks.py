"""The benchmark still finds every mesa entry point it uses.

perfbench/tracer.py swaps span wrappers into module attributes of mesa
(router.eval_predicate, probe.eval_predicate, bench.run_trajectory, ...),
and perfbench/setup_probe.py calls the loaders and the coverage check;
perfbench/workloads.py's FsyncClock counts syncs by patching os.fsync.
Renaming or dropping one of them breaks the benchmark, so it is caught here.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mesa import bench, probe, router
from mesa.backend import CachedBackend, ScriptedBackend, load_script
from mesa.bank import record
from mesa.bench import load_suite
from mesa.cards import CardRegistry, load_registry
from mesa.dsl import eval_predicate
from mesa.fixtures import fixture_path

from conftest import DictBackend, make_card, make_ctx
from test_bank import make_entry

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_attributes() -> dict[tuple[object, str], object]:
    return {
        (module, attr): getattr(module, attr)
        for module, attrs in (
            (router, ("eval_predicate", "run_probe", "build_candidates", "select_action",
                      "score_baseline", "decontaminate")),
            (probe, ("eval_predicate",)),
            (bench, ("run_trajectory", "ScriptedBackend")),
        )
        for attr in attrs
    }


def test_tracer_instruments_and_restores_mesa():
    tracer_module = _load_tracer()
    before = _wrapped_attributes()
    tracer = tracer_module.Tracer()
    with tracer_module.instrument(tracer):
        assert router.eval_predicate is not before[(router, "eval_predicate")]
        registry = tracer.registry(CardRegistry(cards=(make_card("helper"),)))
        ctx = make_ctx()
        assert [card.id for card in registry.matching(ctx)] == ["helper"]
        assert router.eval_predicate(registry.get("helper").apply_when, ctx) is True
        assert registry.read_body("helper") == "do the thing"
    assert _wrapped_attributes() == before
    assert tracer.stats["dsl.apply_when"][0] == 1
    assert tracer.stats["cards.read_body"][0] == 1


def test_tracer_sees_each_probe_build_candidates_runs():
    # The tracer's probe hook reads the card from run_probe's second
    # positional argument and the verdict from its result.
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    card = make_card("helper", cheap_probe="kind:doc")
    with tracer_module.instrument(tracer):
        registry = tracer.registry(CardRegistry(cards=(card,)))
        backend = DictBackend(sources={"__tool__": 0.3, "helper": 0.8}, probes={"helper": 0.1})
        candidates, _, traces = router.build_candidates(
            make_ctx(), registry, backend, router.RoutingConfig(), True, None
        )
    assert tracer.stats["probe.run_probe"][0] == 1
    assert tracer.stats["dsl.cheap_probe"][0] == 1
    assert tracer.counts["probe.passed"] == 1
    assert tracer._probed == {"helper"}
    assert [trace.passed for trace in traces] == [True]
    assert [action.card_id for action in candidates if action.card_id] == ["helper"]


def test_fsync_clock_counts_bank_and_cache_appends(tmp_path, monkeypatch):
    # bank_journal's gate counts syncs by patching os.fsync on the os module,
    # so the journal must look it up there at call time.
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))  # for its sibling imports
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    assert spec is not None and spec.loader is not None
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up there
    spec.loader.exec_module(workloads)
    with workloads.FsyncClock() as clock:
        record(make_entry(), tmp_path / "bank.jsonl")
        after_record = clock.calls
        CachedBackend(DictBackend(p_self=0.7), tmp_path / "cache.jsonl").self_confidence(make_ctx())
    assert after_record >= 1
    assert clock.calls > after_record


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_setup_probe_loads_and_checks_shipped_fixtures():
    env = _src_env()
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            str(fixture_path("cards.json")), str(fixture_path("suite.json")),
            str(fixture_path("script.json")), "--per-slice", "50", "--coverage",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "missing_keys_ms" in proc.stdout


@pytest.fixture(scope="module")
def seed1_registry_dir(tmp_path_factory):
    """registry_gen.py's seed-1 output: 10,000 cards and 100 prompts."""
    out = tmp_path_factory.mktemp("route10k")
    gen = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "registry_gen.py"), "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert gen.returncode == 0, gen.stderr
    return out


def test_setup_probe_digests_routes_over_the_generated_10k_registry(seed1_registry_dir):
    # The seed-1 registry shares 7,048 parsed trees among its 20,000
    # predicates; the digest calls build_candidates and select_action
    # positionally, as the route_registry_10k workload does. Its value pins
    # the decisions, scores, gated cards and probe traces of the prompts it
    # routes, so a change that alters routing must change it on purpose.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         *(str(seed1_registry_dir / name) for name in ("cards.json", "suite.json", "script.json")),
         "--digest"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["digest"] == (
        "300d8f94c87351a3fd1fe323e06f068af839f8651d462e17c373400e266a454c"
    )


def test_whole_registry_routes_ask_only_what_can_change_the_decision(seed1_registry_dir):
    # Routing the 100 seed-1 prompts as `mesa route` does matches 28,541
    # cards; only the 19,173 whose cheap_probe holds have their signal asked.
    # Of the 2,816 loaded cards past the gate, only the 718 whose best
    # possible score beats the best known base action are read and have
    # their source asked: 718 card sources, 100 tool sources and 24 verify
    # sources.
    reads: list[str] = []
    registry = load_registry(seed1_registry_dir / "cards.json")
    suite = load_suite(seed1_registry_dir / "suite.json", registry, expected_per_slice=None)
    registry = registry.with_body_loader(
        lambda card, read=registry.body_loader: (reads.append(card.id), read(card))[1]
    )
    scripted = ScriptedBackend(load_script(seed1_registry_dir / "script.json"), suite, "full")
    calls: Counter = Counter()

    class Counting:
        def __getattr__(self, op):
            query = getattr(scripted, op)

            def counted(*args):
                calls[op] += 1
                return query(*args)

            return counted

    cfg = router.RoutingConfig()
    for item in suite:
        ctx = router.context_for_item(item)
        candidates, cv, _ = router.build_candidates(ctx, registry, Counting(), cfg, True, None)
        router.select_action(ctx, candidates, cv, cfg, registry)
    assert len(suite) == 100
    assert calls["probe_signal"] == 19_173
    assert calls["source_confidence"] == 842
    assert len(reads) == 718
    assert sum(calls.values()) == 20_215


def test_index_matches_a_full_scan_on_every_seed1_prompt(seed1_registry_dir):
    # The generated registry's 10,000 apply_when trees against its 100
    # prompts, each routed twice: first while the index resolves the keys
    # it fires, then from the resolved keys.
    registry = load_registry(seed1_registry_dir / "cards.json")
    suite = load_suite(seed1_registry_dir / "suite.json", registry, expected_per_slice=None)
    contexts = [router.context_for_item(item) for item in suite]
    assert len(contexts) == 100
    matched = 0
    for ctx in contexts + contexts:
        scan = [card for card in registry if eval_predicate(card.apply_when, ctx)]
        assert registry.matching(ctx) == scan
        matched += len(scan)
    assert matched == 2 * 28_541


def test_index_decides_every_seed1_residual_by_fact_lookup(seed1_registry_dir, monkeypatch):
    # Every residual the seed-1 prompts leave is one kind or mime test or
    # its negation, so matching decides each by looking up the context's
    # facts and never calls eval_predicate.
    import mesa.dsl

    registry = load_registry(seed1_registry_dir / "cards.json")
    suite = load_suite(seed1_registry_dir / "suite.json", registry, expected_per_slice=None)
    contexts = [router.context_for_item(item) for item in suite]
    scans = [
        [card for card in registry if eval_predicate(card.apply_when, ctx)] for ctx in contexts
    ]
    evals = []

    def counting(expr, ctx):
        evals.append(expr)
        return eval_predicate(expr, ctx)

    monkeypatch.setattr(mesa.dsl, "eval_predicate", counting)
    assert [registry.matching(ctx) for ctx in contexts] == scans
    assert evals == []

"""The benchmark's tracer still finds every mesa attribute it wraps.

perfbench/tracer.py swaps span wrappers into module attributes of mesa
(router.eval_predicate, probe.eval_predicate, bench.run_trajectory, ...).
Renaming or dropping one of them breaks the benchmark, so it is caught here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from mesa import bench, probe, router
from mesa.cards import CardRegistry

from conftest import make_card, make_ctx

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
        assert [card.id for card in registry.candidates(ctx)] == ["helper"]
        assert router.eval_predicate(registry.get("helper").apply_when, ctx) is True
        assert registry.read_body("helper") == "do the thing"
    assert _wrapped_attributes() == before
    assert tracer.stats["dsl.apply_when"][0] == 1
    assert tracer.stats["cards.read_body"][0] == 1

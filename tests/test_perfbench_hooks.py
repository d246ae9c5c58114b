"""The benchmark still finds every mesa entry point it uses.

perfbench/tracer.py swaps span wrappers into module attributes of mesa
(router.eval_predicate, probe.eval_predicate, bench.run_trajectory, ...),
and perfbench/setup_probe.py calls the loaders and the coverage check.
Renaming or dropping one of them breaks the benchmark, so it is caught here.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from mesa import bench, probe, router
from mesa.cards import CardRegistry
from mesa.fixtures import fixture_path

from conftest import make_card, make_ctx

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_setup_probe_loads_and_checks_shipped_fixtures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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

"""Smoke tests of the benchmark itself; run with

    python3 -m pytest bench/selftest.py

They run every workload briefly, traced and untraced, check that every
metric is emitted, that spans nest and self times add up, and that a
corrupted reference digest counts as a failed item.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_library()
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import ncdga  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture
def runner_for(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUPS_MIN", 1)
    monkeypatch.setattr(run, "SETUPS_BUDGET_S", 0)

    def make(name, reference=REFERENCE):
        return run.Runner(WORKLOADS[name], 7, reference, tmp_path)

    return make


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(runner_for, name):
    runner = runner_for(name)
    metrics, _notes = runner.measure(seconds=0)
    assert runner.failures == []
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(runner_for, name):
    runner = runner_for(name)
    metrics, _notes, detail = runner.trace()
    assert runner.failures == []
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["bench.item.calls"]["value"] == len(WORKLOADS[name].pass_specs(
        run.random.Random(f"{name}:7")))
    assert detail["overhead_ratio"] > 0


def _first_items(name, count, tmp_path):
    specs = WORKLOADS[name].pass_specs(run.random.Random(f"{name}:3"))
    return WORKLOADS[name].build(specs[:count], tmp_path)


def test_spans_nest_and_self_times_fit_in_wall_time(tmp_path):
    items = _first_items("complex-II", 1, tmp_path) + _first_items("verify-I", 1, tmp_path)
    tracer = Tracer()
    with tracer:
        start = run.perf_counter()
        for item in items:
            with tracer.span("bench.item"):
                item.call()
        wall = run.perf_counter() - start
    spans = len(tracer.start)
    names = {tracer.names[tracer.name_of[i]] for i in range(spans)}
    assert {"bench.item", "cli.main", "ainfinity.mu_eps_case2", "homology.homology"} <= names
    for i in range(spans):
        assert tracer.start[i] <= tracer.end[i]
        parent = tracer.parent[i]
        if parent >= 0:
            assert parent < i
            assert tracer.start[parent] <= tracer.start[i] <= tracer.end[i] <= tracer.end[parent]
        else:
            assert tracer.names[tracer.name_of[i]] == "bench.item"
    self_times = tracer.self_times()
    assert min(self_times) > -1e-9
    assert sum(self_times) <= wall + 1e-9


def test_tracer_patches_importing_modules_and_restores_them():
    homology_module = sys.modules["ncdga.homology"]
    original = homology_module.mu_eps_case2
    with Tracer():
        assert homology_module.mu_eps_case2 is not original
        assert sys.modules["ncdga.ainfinity"].mu_eps_case2 is homology_module.mu_eps_case2
    assert homology_module.mu_eps_case2 is original
    for module, path in SPANS.values():
        owner, _, attr = path.rpartition(".")
        target = getattr(sys.modules[module], owner) if owner else sys.modules[module]
        assert not getattr(getattr(target, attr), "__name__", "").startswith("wrapper")
    assert ncdga.cli.main.__name__ == "main"


def test_corrupted_reference_digest_counts_as_failure(runner_for, tmp_path):
    items = _first_items("verify-I", 2, tmp_path)
    corrupted = dict(REFERENCE)
    corrupted[items[0].key] = "ok=True checks=0"
    runner = runner_for("verify-I", corrupted)
    runner.run_pass(items)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and items[0].key in runner.failures[0]

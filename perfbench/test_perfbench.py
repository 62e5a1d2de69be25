"""Checks on the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench

Each layer's call count is non-zero on the workloads that exercise it and
zero on the ones that bypass it, counts and results repeat exactly across
passes at one seed, tracing changes no result, and BENCHMARK.json lists
exactly the metrics the runner reports.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@pytest.fixture(autouse=True)
def at_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    yield


def small(workload, tmp_path):
    wl = workloads.WORKLOAD_TYPES[workload](SEED, str(tmp_path))
    wl.trace_signals = 2 if workload == "noisy_mc" else 4
    return wl


def traced_pass(wl):
    tracer = tracing.Tracer()
    with tracer.installed():
        rec = run.run_pass(wl, wl.trace_signals)
    return rec, tracer


@pytest.mark.parametrize("workload", tracing.WORKLOADS)
def test_layers_follow_the_claims_and_repeat(workload, tmp_path):
    wl = small(workload, tmp_path)
    plain = run.run_pass(wl, wl.trace_signals)
    first, tracer = traced_pass(wl)
    again, tracer_again = traced_pass(wl)
    assert tracing.claim_violations(workload, tracer.layers) == []
    assert tracer.call_counts() == tracer_again.call_counts()
    assert plain.digest.hexdigest() == first.digest.hexdigest() == again.digest.hexdigest()
    assert first.tally.accuracy == again.tally.accuracy


def test_tracer_restores_every_name():
    import importlib

    before = {(m, a): getattr(importlib.import_module(f"transient_lab.{m}"), a)
              for m, a, _ in tracing.PATCH_POINTS}
    with tracing.Tracer().installed():
        pass
    after = {(m, a): getattr(importlib.import_module(f"transient_lab.{m}"), a)
             for m, a, _ in tracing.PATCH_POINTS}
    assert before == after


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(200000)), "signal_core.evaluate_many")
    outer = tracer.wrap(lambda: inner(), "tail_limits.estimate_rate")
    outer()
    rate = tracer.layers["tail_limits.estimate_rate"]
    many = tracer.layers["signal_core.evaluate_many"]
    assert rate.calls == many.calls == 1
    assert 0.0 <= rate.self_s < many.self_s


def test_benchmark_json_lists_the_reported_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = small("clean3", tmp_path)
    layer_metrics, *_ = run.measure_layers(wl, seconds=0.01)
    assert [m["name"] for m in spec["per_layer"]] == list(layer_metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer_metrics.items()}
    e2e, *_ = run.measure_end_to_end(small("clean3", tmp_path), 0.01, run.HostSpeed(),
                                     setup_s=(0.1, 0.1))
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(tracing.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "probe.py", "workloads.py", "tracing.py"):
        (bench / name).write_text((ROOT / "perfbench" / name).read_text())
    import subprocess

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "clean3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert done.stdout == ""

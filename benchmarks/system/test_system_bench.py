"""Self-tests of the system benchmark at tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/system -q``.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import compare
import harness
import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((run.HERE / "config.json").read_text())

#: Small tables and short fixed prefixes; everything else as configured.
TINY = {
    "serve_cold": {"rows": 400, "modeled_ops": 4, "iss_every": 2},
    "serve_hot": {"rows": 400, "modeled_ops": 4, "pool": 16},
    "delta_mix": {"rows": 512, "inserts": 16, "deletes": 16,
                  "modeled_ops": 4},
    "shard_pooled": {"rows": 512, "modeled_ops": 2},
    "paper_iss": {"set_size": 200, "sort_size": 300, "modeled_ops": 2},
}

SECONDS = 0.05


def tiny_params(name):
    return dict(CONFIG["workloads"][name], **TINY[name])


def tiny_run(name, seed=1, trace=False):
    cls = WORKLOADS[name]
    workload = cls(seed, tiny_params(name), SECONDS)
    modeled = cls(CONFIG["default_seed"], tiny_params(name))
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
    try:
        record = harness.run(workload, modeled, SECONDS,
                             cls.probe(CONFIG["host_probe_ref_ms"]), 1,
                             tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return record, tracer


_RUNS = {}


def cached_run(name, seed=1, trace=False):
    key = (name, seed, trace)
    if key not in _RUNS:
        _RUNS[key] = tiny_run(name, seed, trace)
    return _RUNS[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_metric_is_reported_with_its_unit(name):
    record, _ = cached_run(name)
    assert record["failed"] == 0
    metrics = run.listed_metrics(SPEC["end_to_end"], record["metrics"])
    assert [entry["name"] for entry in SPEC["end_to_end"]] == list(metrics)
    for entry in SPEC["end_to_end"]:
        reported = metrics[entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert math.isfinite(reported["value"]) and reported["value"] > 0

    record, tracer = cached_run(name, trace=True)
    assert record["failed"] == 0
    values, _bases = tracing.layer_metrics(tracer, record)
    layers = run.listed_metrics(SPEC["per_layer"], values)
    assert len(layers) == len(SPEC["per_layer"])
    assert all(math.isfinite(metric["value"]) for metric in layers.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_modeled_metric_is_exact_whatever_the_seed(name):
    first, _ = cached_run(name)
    again, _ = tiny_run(name, seed=2)
    assert first["metrics"]["modeled_cycles_per_op"] \
        == again["metrics"]["modeled_cycles_per_op"]


def _inputs(name, seed):
    workload = WORKLOADS[name](seed, tiny_params(name), SECONDS)
    if name == "paper_iss":
        return workload.prepare(0)
    if name == "delta_mix":
        return workload.initial, workload.batches
    return workload.columns


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_selects_the_inputs(name):
    assert _inputs(name, 1) == _inputs(name, 1)
    assert _inputs(name, 1) != _inputs(name, 2)


def test_wrong_rid_counts_as_failed(monkeypatch):
    from repro.db import QueryExecutor

    original = QueryExecutor.set_operation

    def off_by_one(self, which, left, right, stats):
        values = list(original(self, which, left, right, stats))
        return values[:-1] + [values[-1] + 1] if values else values

    monkeypatch.setattr(QueryExecutor, "set_operation", off_by_one)
    record, _ = tiny_run("serve_cold", seed=3)
    assert record["failed"] > 0


def test_traced_self_times_cover_the_request():
    record, tracer = cached_run("serve_cold", trace=True)
    self_s = tracer.self_seconds()
    walls = record["request_walls"]
    assert len(self_s) == len(walls)
    for index, seconds in self_s.items():
        assert seconds <= walls[index]
    assert sum(self_s.values()) >= 0.8 * sum(walls)


def test_compare_verdicts():
    def runs(values, metric="ops_per_s"):
        return [{"workload": "serve_cold", "seed": seed,
                 "metrics": {metric: value}}
                for seed, value in enumerate(values)]

    steady = runs([100, 101, 99, 100, 100])
    args = ("serve_cold", "ops_per_s", 0.1, False)
    assert compare.verdict(steady, steady, *args)[2] == "unchanged"
    assert compare.verdict(steady, runs([80, 81, 79, 80, 80]),
                           *args)[2] == "worse"
    assert compare.verdict(steady, runs([60, 140, 100, 70, 130]),
                           *args)[2] == "unresolved"
    exact = ("serve_cold", "cycles", 0, True)
    same = runs([5, 5, 5], "cycles")
    assert compare.verdict(same, same, *exact)[2] == "unchanged"
    assert compare.verdict(same, runs([5.001] * 3, "cycles"),
                           *exact)[2] == "worse"
    assert compare.verdict(same, runs([4.999] * 3, "cycles"),
                           *exact)[2] == "improved"


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "system",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", "--workload",
         "paper_iss", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_a_crashed_child_never_returns_a_stale_record(tmp_path,
                                                      monkeypatch):
    out = tmp_path / "serve_cold-1.json"
    out.write_text(json.dumps({"workload": "serve_cold", "seed": 1,
                               "failed": 0}))

    def crash(command, **_kwargs):
        return subprocess.CompletedProcess(command, 1, stdout="")

    monkeypatch.setattr(run.subprocess, "run", crash)
    with pytest.raises(SystemExit):
        run._child("serve_cold", 1, 1.0, False, tmp_path, out)
    assert not out.exists()


def test_config_maps_every_layer_metric():
    listed = [entry["name"] for entry in SPEC["per_layer"]]
    assert list(CONFIG["layers"]) == listed
    end_to_end = {entry["name"] for entry in SPEC["end_to_end"]}
    for layer in CONFIG["layers"].values():
        assert layer["moves"] in end_to_end | {"failed", None}
        assert set(layer["workloads"]) <= set(CONFIG["workloads"])

"""Shared fixtures for the benchmark harness.

Every paper table/figure has one bench module.  Benchmarks execute the
full-size paper workloads once (``pedantic`` with a single round — the
simulator is deterministic, so repetition only re-measures Python), and
attach the *model-level* results (throughput, areas, powers) as
``extra_info`` so `pytest benchmarks/ --benchmark-only` prints the
regenerated numbers next to the wall-clock costs.

When ``BENCH_REPORT_DIR`` is set, :func:`run_once` additionally writes
one ``BENCH_<benchmark>.json`` run report per simulated run it can see
in the benchmarked callable's return value — the machine-readable perf
trajectory consumed by CI and cross-PR comparisons (schema:
:mod:`repro.telemetry.report`) — and :func:`write_summary` writes the
summaries of the benchmarks that report more than one run.
"""

import json
import os
import re

import pytest

from repro.configs.catalog import build_processor
from repro.cpu.processor import RunResult
from repro.telemetry.report import RunReport
from repro.synth.synthesis import synthesize_config
from repro.workloads.sets import generate_set_pair
from repro.workloads.sorting import random_values


@pytest.fixture(scope="session")
def paper_sets():
    """The paper's Table 2 set workload: 2x5000 at 50% selectivity."""
    return generate_set_pair(5000, selectivity=0.5, seed=42)


@pytest.fixture(scope="session")
def paper_sort_values():
    """The paper's sort workload: 6500 random 32-bit values."""
    return random_values(6500, seed=42)


@pytest.fixture(scope="session")
def fmax():
    """Synthesized core frequencies per configuration (MHz)."""
    return {name: synthesize_config(name).fmax_mhz
            for name in ("108Mini", "DBA_1LSU", "DBA_2LSU",
                         "DBA_1LSU_EIS", "DBA_2LSU_EIS")}


@pytest.fixture(scope="session")
def processors():
    """Session-shared processor instances for all Table 2 rows."""
    built = {
        ("108Mini", None): build_processor("108Mini"),
        ("DBA_1LSU", None): build_processor("DBA_1LSU"),
        ("DBA_1LSU_EIS", False): build_processor("DBA_1LSU_EIS",
                                                 partial_load=False),
        ("DBA_2LSU_EIS", False): build_processor("DBA_2LSU_EIS",
                                                 partial_load=False),
        ("DBA_1LSU_EIS", True): build_processor("DBA_1LSU_EIS",
                                                partial_load=True),
        ("DBA_2LSU_EIS", True): build_processor("DBA_2LSU_EIS",
                                                partial_load=True),
    }
    yield built
    _lint_executed_kernels(built.values())


def _lint_executed_kernels(procs):
    """Warn-only static verification of every kernel the session ran.

    Re-lints the programs accumulated in each processor's kernel cache
    at teardown so any warning-severity findings surface in the pytest
    warnings summary without failing the benchmarks.
    """
    import warnings

    from repro.analysis import LintWarning, lint_program

    for proc in procs:
        for key, (program, _config, _exts) in getattr(
                proc, "_kernel_cache", {}).items():
            report = lint_program(program, proc)
            for diagnostic in report.at_least("warning"):
                warnings.warn("%s: %s" % (key, diagnostic.format()),
                              LintWarning)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic harness with a single measured round."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                iterations=1, warmup_rounds=0)
    directory = os.environ.get("BENCH_REPORT_DIR")
    if directory:
        run = _find_run_result(result)
        if run is not None:
            _write_bench_report(directory, benchmark.name, run)
    return result


def _find_run_result(value):
    """Dig the RunResult out of a benchmarked callable's return value."""
    if isinstance(value, RunResult):
        return value
    if isinstance(value, (tuple, list)):
        for item in value:
            if isinstance(item, RunResult):
                return item
    return None


def _write_bench_report(directory, bench_name, run):
    os.makedirs(directory, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", bench_name).strip("_")
    path = os.path.join(directory, "BENCH_%s.json" % slug)
    RunReport.from_run(run, workload=bench_name).save(path)
    return path


def write_summary(name, payload):
    """Write *payload* as ``BENCH_<name>.json`` into ``BENCH_REPORT_DIR``.

    Returns the path, or ``None`` when the variable is unset.
    """
    directory = os.environ.get("BENCH_REPORT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_%s.json" % name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path

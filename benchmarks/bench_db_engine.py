"""Meta-benchmark: batched query serving, cost model vs ISS.

Not a paper experiment — this tracks the reproduction's own serving
throughput: the :class:`repro.db.engine.QueryEngine` cost-model fast
path against the ISS serving path it replaced (a per-query executor
loop).  The fast path must agree RID-for-RID and cycle-for-cycle with
an ISS-backed engine and row-for-row with the baseline loop (the
benchmark asserts it); the speedup is what the engine buys.  The
gated :func:`~repro.db.bench.run_bench` figures serve every round on a
fresh engine, so they are cold; the timed ``benchmark.pedantic``
rounds reuse one engine, whose result cache answers every predicate
node, so they are warm, and ``extra_info`` says which is which.  When
``BENCH_REPORT_DIR`` is set, the summary is written to
``BENCH_db_engine.json`` (consumed by the CI throughput gate; see
docs/QUERY_ENGINE.md).
"""

from conftest import write_summary
from repro.db.bench import build_demo_table, demo_queries, run_bench
from repro.db.engine import QueryEngine

#: The CI gate: the cost-model engine must serve batches at least this
#: many times faster than the ISS serving path.
MIN_SPEEDUP = 10.0


def test_engine_batch_throughput(benchmark):
    """Engine batch serving (cost model) vs the ISS serving path."""
    report = run_bench(rows=1600, queries=64, repeat=3, seed=42)
    assert report["rid_parity"], "cost-model RIDs diverged from ISS"
    assert report["cycle_parity"], "cost-model cycles diverged from ISS"
    assert report["row_parity"], "engine rows diverged from baseline"

    table = build_demo_table(rows=1600, seed=42)
    batch = demo_queries(table, count=64, seed=43)
    engine = QueryEngine()  # calibrations are already warm

    def serve():
        return engine.execute_batch(batch)

    results = benchmark.pedantic(serve, rounds=3, iterations=1,
                                 warmup_rounds=1)
    assert len(results) == len(batch)

    benchmark.extra_info["timed_rounds"] = "warm"
    benchmark.extra_info["speedup_rounds"] = "cold"
    benchmark.extra_info["queries"] = report["queries"]
    benchmark.extra_info["rows"] = report["rows"]
    benchmark.extra_info["costmodel_qps"] = round(
        report["costmodel"]["queries_per_second"], 1)
    benchmark.extra_info["iss_qps"] = round(
        report["iss"]["queries_per_second"], 1)
    benchmark.extra_info["speedup"] = round(report["speedup"], 2)
    path = write_summary("db_engine", report)
    if path:
        benchmark.extra_info["report"] = path

    assert report["speedup"] >= MIN_SPEEDUP, (
        "engine speedup %.1fx below the %.0fx gate"
        % (report["speedup"], MIN_SPEEDUP))


def test_engine_single_query_latency(benchmark):
    """Steady-state single-query latency on the cost-model path."""
    table = build_demo_table(rows=1600, seed=42)
    query = demo_queries(table, count=1, seed=44)[0]
    engine = QueryEngine()
    engine.execute(query)  # warm calibrations and result cache

    result = benchmark.pedantic(engine.execute, args=(query,),
                                rounds=5, iterations=1,
                                warmup_rounds=1)
    assert result.stats.cycles >= 0
    benchmark.extra_info["timed_rounds"] = "warm"
    benchmark.extra_info["cycles"] = result.stats.cycles
    benchmark.extra_info["rows_returned"] = len(result.rows)

"""Meta-benchmark: sharded scale-out serving vs the single engine.

Not a paper experiment — this tracks the reproduction's own sharded
serving path: :class:`repro.db.shard.ShardedEngine` against the single
:class:`repro.db.engine.QueryEngine` on the scale-out WHERE workload.
The sharded path must agree RID-for-RID with the single engine (the
benchmark asserts it); what it buys is *modeled* speedup — serial
cycles over summed per-query makespans (max shard WHERE + interconnect
gather + EIS union merge).

The batch is served once cold on a fresh engine, then in the timed
(warm) rounds on the same engine.  Result-cache hits replay the cycles
their set operations cost, so cold and warm makespans must be equal;
the modeled speedup is taken from the cold batch, and the warm rounds
report their result-cache hit rate and the wall-clock speedup of
sharded over single-engine serving beside it.  When
``BENCH_REPORT_DIR`` is set the summary is written to
``BENCH_db_shard.json`` (consumed by the CI ``scale-out`` gate and
``repro bench record``; see docs/SHARDING.md).
"""

import time

from conftest import write_summary
from repro.db.engine import QueryEngine
from repro.db.shard import ShardedEngine
from repro.experiments.scale_out import _where_queries, build_demo_table

#: The CI gate: modeled 4-shard speedup on the uniform workload.
MIN_MODELED_SPEEDUP = 2.0

ROWS = 8192
QUERIES = 24
SHARDS = 4


def _hit_rate(before, after):
    """Shard engines' result-cache hit rate between two snapshots."""
    counts = {}
    for name in ("hits", "misses"):
        counts[name] = sum(
            after["db.shard.%d.engine.result_cache.%s" % (index, name)]
            - before["db.shard.%d.engine.result_cache.%s" % (index, name)]
            for index in range(SHARDS))
    looked_up = counts["hits"] + counts["misses"]
    return counts["hits"] / looked_up if looked_up else 0.0


def _best_seconds(engine, batch, rounds=3):
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        engine.execute_batch(batch)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_sharded_batch_serving(benchmark):
    """4-shard scatter/gather vs single-engine serving, cost model."""
    table = build_demo_table(rows=ROWS, seed=42)
    batch = _where_queries(table, QUERIES, seed=49)

    single = QueryEngine()
    single_results = single.execute_batch(batch)
    serial_cycles = sum(r.stats.cycles for r in single_results)

    engine = ShardedEngine(shards=SHARDS)
    engine.shards_for(table)  # partition outside the timed region
    cold_results = engine.execute_batch(batch)
    cold_makespan = sum(r.makespan_cycles for r in cold_results)
    before = engine.metrics_snapshot()
    warm_seconds = []

    def serve():
        started = time.perf_counter()
        results = engine.execute_batch(batch)
        warm_seconds.append(time.perf_counter() - started)
        return results

    results = benchmark.pedantic(serve, rounds=3, iterations=1,
                                 warmup_rounds=1)
    snapshot = engine.metrics_snapshot()
    for served in (cold_results, results):
        assert [r.rids for r in served] \
            == [r.rids for r in single_results], \
            "sharded RIDs diverged from the single engine"

    warm_makespan = sum(r.makespan_cycles for r in results)
    assert warm_makespan == cold_makespan, (
        "warm batch cost %d makespan cycles, cold %d"
        % (warm_makespan, cold_makespan))
    modeled_speedup = serial_cycles / cold_makespan \
        if cold_makespan else 0.0
    hit_rate = _hit_rate(before, snapshot)
    single_seconds = _best_seconds(single, batch)
    sharded_seconds = min(warm_seconds)

    def timed(name):
        """What the timed rounds (warm-up included) added to *name*."""
        return snapshot[name] - before[name]

    shard_cycles = [timed("db.shard.%d.cycles" % index)
                    for index in range(SHARDS)]
    total = sum(shard_cycles)
    summary = {
        "schema": "repro.bench-db-shard/v1",
        "rows": ROWS,
        "queries": QUERIES,
        "shards": SHARDS,
        "rid_parity": True,
        "serial_cycles": serial_cycles,
        "makespan_cycles": cold_makespan,
        "cold_makespan_cycles": cold_makespan,
        "warm_makespan_cycles": warm_makespan,
        "modeled_speedup": modeled_speedup,
        "warm_result_cache_hit_rate": hit_rate,
        "warm_single_seconds": single_seconds,
        "warm_sharded_seconds": sharded_seconds,
        "warm_wall_speedup": single_seconds / sharded_seconds,
        "skew": (max(shard_cycles) * SHARDS / total) if total else 1.0,
        "skipped": timed("db.shard.skipped"),
        "gather_merge_cycles": timed("db.shard.gather.merge_cycles"),
        "gather_transfer_cycles":
            timed("db.shard.gather.transfer_cycles"),
        "gather_bytes": timed("db.shard.gather.bytes_moved"),
    }
    benchmark.extra_info["modeled_speedup"] = round(modeled_speedup, 2)
    benchmark.extra_info["makespan_cycles"] = cold_makespan
    benchmark.extra_info["timed_rounds"] = "warm"
    benchmark.extra_info["warm_result_cache_hit_rate"] = round(hit_rate,
                                                               3)
    benchmark.extra_info["warm_wall_speedup"] = round(
        summary["warm_wall_speedup"], 2)
    benchmark.extra_info["skew"] = round(summary["skew"], 2)
    path = write_summary("db_shard", summary)
    if path:
        benchmark.extra_info["report"] = path

    assert modeled_speedup >= MIN_MODELED_SPEEDUP, (
        "modeled %d-shard speedup %.2fx below the %.1fx gate"
        % (SHARDS, modeled_speedup, MIN_MODELED_SPEEDUP))

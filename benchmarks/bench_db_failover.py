"""Meta-benchmark: the cost of fault tolerance on the sharded path.

Not a paper experiment — this tracks what the failover machinery of
:class:`repro.db.shard.ShardedEngine` costs when nothing fails (the
fault-free overhead of breakers + checksums + replica planning must
stay negligible) and what a masked worker kill costs when one replica
absorbs it (failover serves every query byte-identical, at bounded
modeled-cycle overhead).  When ``BENCH_REPORT_DIR`` is set the summary
is written to ``BENCH_db_failover.json`` (consumed by the CI ``chaos``
job and ``repro bench record``; see docs/SHARDING.md).
"""

from conftest import write_summary
from repro.db.shard import ShardedEngine
from repro.experiments.scale_out import _where_queries, build_demo_table
from repro.faults.db import DbFaultInjector, WorkerKill
from repro.faults.plan import FaultPlan

ROWS = 4096
QUERIES = 16
SHARDS = 4

#: CI gate: a masked kill may cost at most this much modeled-makespan
#: overhead vs the fault-free sharded run (the replica re-serves one
#: shard's WHERE work; everything else is unchanged).
MAX_MASKED_OVERHEAD = 3.0


def test_failover_masked_kill(benchmark):
    """Replicated serving under a worker kill vs fault-free serving."""
    table = build_demo_table(rows=ROWS, seed=42)
    batch = _where_queries(table, QUERIES, seed=49)

    clean = ShardedEngine(shards=SHARDS, replication=1)
    clean.shards_for(table)
    clean_results = clean.execute_batch(batch)
    clean_makespan = sum(r.makespan_cycles for r in clean_results)

    def serve_with_kill():
        engine = ShardedEngine(
            shards=SHARDS, replication=1,
            fault_injector=DbFaultInjector(
                FaultPlan([WorkerKill(0, 0)])))
        return engine, engine.execute_batch(batch)

    engine, results = benchmark.pedantic(serve_with_kill, rounds=3,
                                         iterations=1, warmup_rounds=1)
    assert [r.rids for r in results] \
        == [r.rids for r in clean_results], \
        "failover RIDs diverged from the fault-free run"
    assert all(r.complete for r in results)

    masked_makespan = sum(r.makespan_cycles for r in results)
    overhead = masked_makespan / clean_makespan \
        if clean_makespan else 0.0
    snapshot = engine.metrics_snapshot()
    summary = {
        "schema": "repro.bench-db-failover/v1",
        "rows": ROWS,
        "queries": QUERIES,
        "shards": SHARDS,
        "replication": 1,
        "rid_parity": True,
        "clean_makespan_cycles": clean_makespan,
        "masked_makespan_cycles": masked_makespan,
        "masked_overhead": overhead,
        "failovers": snapshot["db.fault.failovers"],
        "kills": snapshot["db.fault.kills"],
        "breaker_trips": sum(
            snapshot["db.shard.%d.breaker.trips" % index]
            for index in range(SHARDS)),
        "short_circuits": sum(
            snapshot["db.shard.%d.breaker.short_circuits" % index]
            for index in range(SHARDS)),
    }
    benchmark.extra_info["masked_overhead"] = round(overhead, 2)
    benchmark.extra_info["failovers"] = summary["failovers"]
    path = write_summary("db_failover", summary)
    if path:
        benchmark.extra_info["report"] = path

    assert overhead <= MAX_MASKED_OVERHEAD, (
        "masked-kill makespan overhead %.2fx above the %.1fx gate"
        % (overhead, MAX_MASKED_OVERHEAD))

"""``repro db top`` — a live terminal view of a serving engine.

Drives the demo workload (:mod:`repro.db.bench`) through one
long-lived :class:`~repro.db.engine.QueryEngine` and redraws a compact
dashboard between batches: throughput, queue depth, worker
utilization, scan-cache, result-cache and CSE economics, and the
p50/p95/p99 query cycle quantiles the
:class:`~repro.telemetry.registry.Histogram` reservoir now estimates.  With ``--metrics-out`` every frame is also
flushed as a JSONL snapshot (:class:`~repro.telemetry.export.
JsonlExporter`) so a soak run leaves a machine-readable trail.

Rendering is split from driving (:func:`render_dashboard` is a pure
snapshot → text function) so tests and other front ends can reuse the
view without a terminal.
"""

import time

from ..telemetry.export import JsonlExporter
from .bench import build_demo_table, demo_queries
from .engine import QueryEngine

#: ANSI clear-screen + home, used between live frames.
CLEAR = "\x1b[2J\x1b[H"


def _rate(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def render_dashboard(snapshot, frame=0, elapsed=0.0, workers=1):
    """The dashboard text for one engine metrics snapshot (a dict)."""
    get = snapshot.get
    quantiles = get("db.engine.query_cycles", {}) or {}
    requested = get("db.engine.workers", 0) or workers
    active = get("db.engine.active_workers", 0)
    utilization = active / requested if requested else 0.0
    lines = []
    lines.append("repro db top — frame %d (%.1fs)" % (frame, elapsed))
    lines.append("")
    lines.append("  queries served   %12d    batches %d"
                 % (get("db.engine.queries", 0),
                    get("db.engine.batches", 0)))
    lines.append("  last batch       %12.1f q/s"
                 % get("db.engine.last_batch_qps", 0))
    lines.append("  queue depth      %12d    workers %d/%d (%.0f%%)"
                 % (get("db.engine.queue_depth", 0), active, requested,
                    utilization * 100))
    lines.append("  scan cache       %11.1f%%    (%d hits, %d misses)"
                 % (_rate(get("db.engine.scan_cache.hits", 0),
                          get("db.engine.scan_cache.misses", 0)) * 100,
                    get("db.engine.scan_cache.hits", 0),
                    get("db.engine.scan_cache.misses", 0)))
    lines.append("  result cache     %11.1f%%    (%d hits, %d misses, "
                 "%d evicted)"
                 % (_rate(get("db.engine.result_cache.hits", 0),
                          get("db.engine.result_cache.misses", 0)) * 100,
                    get("db.engine.result_cache.hits", 0),
                    get("db.engine.result_cache.misses", 0),
                    get("db.engine.result_cache.evictions", 0)))
    lines.append("  cse reuse        %12d    cycles saved %d"
                 % (get("db.engine.cse.hits", 0),
                    get("db.engine.cycles_saved", 0)))
    lines.append("  cycles           %12d iss  %d costmodel"
                 % (get("db.engine.cycles_iss", 0),
                    get("db.engine.cycles_costmodel", 0)))
    lines.append("  query cycles     p50 %-10s p95 %-10s p99 %s"
                 % (quantiles.get("p50"), quantiles.get("p95"),
                    quantiles.get("p99")))
    worker_rows = sorted(
        {name.split(".")[3] for name in snapshot
         if name.startswith("db.engine.worker.")
         and name.split(".")[3].isdigit()}, key=int)
    for worker in worker_rows:
        prefix = "db.engine.worker.%s." % worker
        lines.append(
            "    worker %-3s queries %-6d scan hits %-5d cse %d"
            % (worker, get(prefix + "queries", 0),
               get(prefix + "scan_cache.hits", 0),
               get(prefix + "cse.hits", 0)))
    shard_rows = sorted(
        {name.split(".")[2] for name in snapshot
         if name.startswith("db.shard.")
         and name.split(".")[2].isdigit()}, key=int)
    if shard_rows:
        lines.append("  shards %9d    skew %.2f    skipped %d    "
                     "gather %d merge + %d transfer cycles"
                     % (get("db.shard.shards", len(shard_rows)),
                        get("db.shard.skew", 0) or 0,
                        get("db.shard.skipped", 0),
                        get("db.shard.gather.merge_cycles", 0),
                        get("db.shard.gather.transfer_cycles", 0)))
        for shard in shard_rows:
            prefix = "db.shard.%s." % shard
            lines.append(
                "    shard %-4s cycles %-9d rows %-7d held %-6d "
                "queue %-3d skipped %-5d result cache %.1f%%"
                % (shard, get(prefix + "cycles", 0),
                   get(prefix + "rows", 0),
                   get(prefix + "rows_held", 0),
                   get(prefix + "queue_depth", 0),
                   get(prefix + "skipped", 0),
                   _rate(get(prefix + "engine.result_cache.hits", 0),
                         get(prefix + "engine.result_cache.misses", 0))
                   * 100))
    return "\n".join(lines)


def run_top(config="DBA_2LSU_EIS", rows=400, queries=32, workers=1,
            frames=0, interval=1.0, seed=42, clear=True,
            metrics_out=None, out=None, sleep=time.sleep, shards=0):
    """Serve demo batches forever (or *frames* times), redrawing.

    Returns the final metrics snapshot.  *frames* ``<= 0`` runs until
    interrupted; *out* defaults to :func:`print` and *sleep* is
    injectable for tests.  ``shards > 1`` serves through a
    :class:`~repro.db.shard.ShardedEngine` instead, adding a per-shard
    dashboard row (cycles, rows scanned, queue depth) so partition
    skew is visible live.
    """
    emit = print if out is None else out
    table = build_demo_table(rows=rows, seed=seed)
    if shards and shards > 1:
        from .shard import ShardedEngine
        engine = ShardedEngine(config=config, shards=shards)
    else:
        engine = QueryEngine(config=config)
    exporter = JsonlExporter(metrics_out) if metrics_out else None
    started = time.perf_counter()
    frame = 0
    snapshot = engine.metrics_snapshot()
    try:
        while frames <= 0 or frame < frames:
            frame += 1
            batch = demo_queries(table, count=queries,
                                 seed=seed + frame)
            engine.execute_batch(batch, workers=workers)
            snapshot = engine.metrics_snapshot()
            text = render_dashboard(
                snapshot, frame=frame,
                elapsed=time.perf_counter() - started,
                workers=workers)
            emit((CLEAR + text) if clear else text)
            if exporter is not None:
                exporter.flush(
                    {name: value for name, value in snapshot.items()
                     if isinstance(value, (int, float, dict))},
                    label="frame-%d" % frame)
            if (frames <= 0 or frame < frames) and interval > 0:
                sleep(interval)
    except KeyboardInterrupt:
        pass
    return snapshot

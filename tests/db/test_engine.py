"""Tests for the batched query-serving engine."""

import random

import pytest

from repro.core.costmodel import CostModel
from repro.db import (And, Eq, In, Or, Query, QueryEngine, Range,
                      Table, signature)


@pytest.fixture(scope="module")
def table():
    rng = random.Random(31)
    n = 600
    table = Table("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(6) for _ in range(n)],
        "price": [rng.randrange(800) for _ in range(n)],
    })
    for column in ("status", "region", "price"):
        table.create_index(column)
    return table


@pytest.fixture(scope="module")
def predicate():
    return (Eq("status", 1) & Range("price", 50, 600)) | Eq("region", 2)


def make_engine(processor, **kwargs):
    kwargs.setdefault("processor", processor)
    return QueryEngine(**kwargs)


class TestSignature:
    def test_structurally_equal_trees_share_signature(self):
        left = And(Eq("a", 1), Range("b", 2, 3))
        right = And(Eq("a", 1), Range("b", 2, 3))
        assert signature(left) == signature(right)

    def test_different_trees_differ(self):
        assert signature(Eq("a", 1)) != signature(Eq("a", 2))
        assert signature(And(Eq("a", 1), Eq("b", 2))) \
            != signature(Or(Eq("a", 1), Eq("b", 2)))
        assert signature(In("a", (1, 2))) != signature(In("a", (2, 1)))


class TestEngine:
    def test_single_query_matches_executor(self, eis_2lsu_partial,
                                           table, predicate):
        engine = make_engine(eis_2lsu_partial)
        result = engine.execute(Query(table, predicate,
                                      order_by="price", limit=10))
        rows, stats = engine.executor.select(
            table, predicate, order_by="price", limit=10)
        assert result.rows == rows
        assert result.stats.cycles == stats.cycles

    def test_cost_model_and_iss_engines_agree(self, eis_2lsu_partial,
                                              table, predicate):
        queries = [Query(table, predicate, order_by="price"),
                   Query(table, Eq("status", 0), limit=5),
                   Query(table, None, order_by="price",
                         descending=True, limit=3)]
        fast = make_engine(eis_2lsu_partial)
        slow = make_engine(eis_2lsu_partial, cost_model=False)
        for fast_result, slow_result in zip(
                fast.execute_batch(queries),
                slow.execute_batch(queries)):
            assert fast_result.rids == slow_result.rids
            assert fast_result.rows == slow_result.rows
            assert fast_result.stats.cycles == slow_result.stats.cycles
        snapshot = fast.metrics_snapshot()
        assert snapshot["db.engine.cycles_iss"] == 0
        assert snapshot["db.engine.cycles_costmodel"] > 0
        slow_snapshot = slow.metrics_snapshot()
        assert slow_snapshot["db.engine.cycles_costmodel"] == 0
        assert slow_snapshot["db.engine.cycles_iss"] > 0

    def test_scan_cache_hits_across_batches(self, eis_2lsu_partial,
                                            table):
        engine = make_engine(eis_2lsu_partial)
        query = Query(table, Eq("status", 1))
        first = engine.execute(query)
        misses = engine.metrics_snapshot()["db.engine.scan_cache.misses"]
        second = engine.execute(Query(table, Eq("status", 1)))
        snapshot = engine.metrics_snapshot()
        assert second.rids == first.rids
        assert snapshot["db.engine.scan_cache.hits"] == 1
        assert snapshot["db.engine.scan_cache.misses"] == misses
        engine.clear_caches()
        engine.execute(query)
        assert engine.metrics_snapshot()[
            "db.engine.scan_cache.misses"] == misses + 1

    def test_cached_scan_results_are_isolated_copies(
            self, eis_2lsu_partial, table):
        engine = make_engine(eis_2lsu_partial)
        first = engine.execute(Query(table, Eq("region", 2)))
        first.rids.append(999999)  # caller mutates its copy
        second = engine.execute(Query(table, Eq("region", 2)))
        assert 999999 not in second.rids

    def test_cached_arrays_are_read_only(self, eis_2lsu_partial, table):
        """The result cache and CSE hand one RID array to every later
        hit: serving a cached scan twice under descending ORDER BY +
        LIMIT leaves it intact, and writing into a cached array
        raises."""
        from repro.db import ColumnarTable
        columnar = ColumnarTable("orders", {
            name: table.column(name)
            for name in ("status", "region", "price")})
        for column in ("status", "region", "price"):
            columnar.create_index(column)

        def query(on):
            return Query(on, Eq("region", 2), order_by="price",
                         descending=True, limit=10)

        expected = make_engine(eis_2lsu_partial).execute(query(table))
        engine = make_engine(eis_2lsu_partial)
        first = engine.execute(query(columnar))
        second = engine.execute(query(columnar))
        assert engine.metrics_snapshot()["db.engine.scan_cache.hits"] == 1
        assert first.rids == second.rids == expected.rids
        assert first.rows == second.rows == expected.rows
        cse = {}
        engine.evaluate_predicate(
            columnar, Eq("region", 2) & Range("price", 0, 500), cse=cse)
        # two leaves and their intersection, and the intersection's CSE
        cached = [rids for rids, _cost in engine._cache.values()] \
            + [rids for rids, _cycles in cse.values()]
        assert len(cached) == 4
        for rids in cached:
            assert len(rids)
            with pytest.raises(ValueError):
                rids[0] = -1

    def test_cse_reuses_identical_subtrees_within_batch(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        results = engine.execute_batch(
            [Query(table, predicate), Query(table, predicate),
             Query(table, predicate)])
        assert results[0].rids == results[1].rids == results[2].rids
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.cse.hits"] == 2
        assert snapshot["db.engine.cycles_saved"] > 0
        # reused queries are not charged the subtree's cycles again
        assert results[1].stats.set_operations == 0

    def test_cse_does_not_leak_across_batches(self, eis_2lsu_partial,
                                              table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch([Query(table, predicate)])
        engine.execute_batch([Query(table, predicate)])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.cse.hits"] == 0

    def test_parallel_batch_matches_serial(self, eis_2lsu_partial,
                                           table, predicate):
        # distinct queries: per-query cycle attribution with CSE
        # depends on in-chunk order, so duplicates are tested elsewhere
        queries = [Query(table, predicate, order_by="price", limit=7),
                   Query(table, Eq("status", 2), order_by="price"),
                   Query(table, Range("price", 10, 300)),
                   Query(table, In("region", (0, 4)), limit=2)]
        engine = make_engine(eis_2lsu_partial)
        serial = engine.execute_batch(queries)
        parallel = engine.execute_batch(queries, workers=2)
        for serial_result, parallel_result in zip(serial, parallel):
            assert parallel_result.rids == serial_result.rids
            assert parallel_result.rows == serial_result.rows
            assert parallel_result.stats.cycles \
                == serial_result.stats.cycles

    @pytest.mark.parametrize("storage", ("row", "columnar"))
    @pytest.mark.parametrize("core", ("eis_2lsu_partial", "dba_1lsu"))
    def test_repeated_in_probes_fall_back_to_iss(self, request, table,
                                                 storage, core):
        """``In`` with repeated probe values scans duplicate RIDs (by
        design), outside the kernels' strictly-increasing contract:
        every set op over such a list runs on the ISS, on purpose.
        The scalar kernels have no result-count check to fall back on,
        so without the operand check they returned wrong RIDs."""
        processor = request.getfixturevalue(core)
        if storage == "columnar":
            from repro.db import ColumnarTable
            table = ColumnarTable("orders", {
                name: table.column(name)
                for name in ("status", "region", "price")})
            for column in ("status", "region", "price"):
                table.create_index(column)
        predicates = [In("region", (1, 1, 2)) & Range("price", 100, 700),
                      In("region", (3, 2, 3)) | Eq("status", 1),
                      Eq("status", 2) - In("region", (4, 4)),
                      In("region", (0, 5, 0)) - Range("price", 0, 300)]
        queries = [Query(table, predicate) for predicate in predicates]
        queries.append(Query(table, predicates[0], order_by="price"))
        fast = make_engine(processor, cost_model=CostModel())
        slow = make_engine(processor, cost_model=False)
        results = fast.execute_batch(queries)
        for result, expected in zip(results,
                                    slow.execute_batch(queries)):
            assert result.rids == expected.rids
            assert result.stats.cycles == expected.stats.cycles
        scanned = predicates[0].left.scan(table)
        assert len(set(scanned)) < len(scanned)
        snapshot = fast.metrics_snapshot()
        # one per set op with a duplicate operand; CSE serves the
        # ORDER BY query's WHERE, and its sort is modeled
        assert snapshot["costmodel.fallbacks"] == len(predicates)
        assert snapshot["costmodel.mismatches"] == 0
        assert results[-1].stats.cycles_by_source["costmodel"] > 0

    def test_missing_index_is_reported(self, eis_2lsu_partial):
        bare = Table("bare", {"a": [1, 2, 3]})
        engine = make_engine(eis_2lsu_partial)
        with pytest.raises(KeyError, match="secondary index"):
            engine.execute(Query(bare, Eq("a", 1)))

    def test_queries_counter_and_qps_gauge(self, eis_2lsu_partial,
                                           table):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch([Query(table, Eq("status", 0)),
                              Query(table, Eq("status", 3))])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.queries"] == 2
        assert snapshot["db.engine.batches"] == 1
        assert snapshot["db.engine.last_batch_qps"] > 0


class TestResultCache:
    """Cross-batch result cache: hits replay the cycles their set
    operations cost, so a warm engine answers like a fresh one."""

    A = Eq("status", 1)
    B = Range("price", 50, 600)
    C = Eq("region", 2)

    def batch(self, table):
        """A later query reuses an inner subtree of an earlier one."""
        return [Query(table, (self.A & self.B) | self.C, order_by="price"),
                Query(table, self.A & self.B, limit=9),
                Query(table, (self.A & self.B) - In("region", (0, 4)))]

    @staticmethod
    def served(results):
        return [(result.rids, result.stats.to_dict())
                for result in results]

    @pytest.mark.parametrize("cost_model", (True, False),
                             ids=("costmodel", "iss"))
    def test_warm_engine_matches_fresh(self, eis_2lsu_partial, table,
                                       cost_model):
        warm = make_engine(eis_2lsu_partial, cost_model=cost_model)
        warm.execute_batch([Query(table, (self.A & self.B) | self.C),
                            Query(table, (self.A & self.B)
                                  - In("region", (0, 4)))])
        before = warm.metrics_snapshot()
        got = warm.execute_batch(self.batch(table))
        after = warm.metrics_snapshot()
        fresh = make_engine(eis_2lsu_partial, cost_model=cost_model)
        want = fresh.execute_batch(self.batch(table))
        assert self.served(got) == self.served(want)
        expected = fresh.metrics_snapshot()
        for name in ("db.engine.cycles_saved", "db.engine.cse.hits"):
            assert after[name] - before[name] == expected[name] > 0
        hits = after["db.engine.result_cache.hits"] \
            - before["db.engine.result_cache.hits"]
        assert hits == 3  # A & B, its union with C, its difference
        assert after["db.engine.result_cache.misses"] \
            == before["db.engine.result_cache.misses"]
        assert expected["db.engine.result_cache.hits"] == 0

    def test_tiny_budget_evicts_without_changing_answers(
            self, monkeypatch, eis_2lsu_partial, table):
        import repro.db.engine as engine_module
        monkeypatch.setattr(engine_module, "RESULT_CACHE_BYTES", 2048)
        want = self.served(make_engine(eis_2lsu_partial).execute_batch(
            self.batch(table)))
        engine = make_engine(eis_2lsu_partial)
        for _round in range(2):
            assert self.served(engine.execute_batch(self.batch(table))) \
                == want
            assert engine._cache_bytes <= 2048
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.result_cache.evictions"] > 0

    def test_traced_warm_batch_replays_modeled_spans(
            self, eis_2lsu_partial, table):
        from repro.telemetry.querytrace import QueryTracer

        def modeled(tracer):
            totals = {}
            for _start, cycles, name, source, _args \
                    in tracer.cycle_events:
                totals[name, source] = totals.get((name, source), 0) \
                    + cycles
            return totals

        engine = make_engine(eis_2lsu_partial)
        cold, warm = QueryTracer(), QueryTracer()
        engine.execute_batch(self.batch(table), tracer=cold)
        engine.execute_batch(self.batch(table), tracer=warm)
        assert modeled(warm) == modeled(cold)
        assert any(name.startswith("set.") for name, _source
                   in modeled(cold))
        cached = [event for event in warm.wall_events
                  if event[2].startswith("set.")]
        assert cached and all(event[2].endswith(".cached")
                              for event in cached)


class TestWorkerMetricMerge:
    """Worker-pool serving no longer loses its subprocess metrics."""

    def queries(self, table, predicate):
        return [Query(table, predicate, order_by="price", limit=7),
                Query(table, Eq("status", 2), order_by="price"),
                Query(table, Range("price", 10, 300)),
                Query(table, In("region", (0, 4)), limit=2)]

    def test_worker_metrics_namespaced_into_parent(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        worker_queries = [snapshot[name] for name in snapshot
                          if name.startswith("db.engine.worker.")
                          and name.endswith(".queries")]
        assert len(worker_queries) == 2
        assert sum(worker_queries) == 4
        # ...without double-counting the parent's own accounting
        assert snapshot["db.engine.queries"] == 4

    def test_worker_cache_economics_roll_up(self, eis_2lsu_partial,
                                            table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        worker_misses = sum(
            snapshot[name] for name in snapshot
            if name.startswith("db.engine.worker.")
            and name.endswith("scan_cache.misses"))
        assert worker_misses > 0
        # aggregated totals cover the workers' scan-cache traffic
        assert snapshot["db.engine.scan_cache.misses"] == worker_misses

    def test_supervisor_counters_ride_along(self, eis_2lsu_partial,
                                            table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.supervisor.submitted"] == 2
        assert snapshot["db.engine.supervisor.ok"] == 2
        assert snapshot["db.engine.workers"] == 2

    def test_workers_gauge_resets_between_batches(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        assert engine.metrics_snapshot()["db.engine.queue_depth"] == 0


class TestBenchHarness:
    def test_run_bench_reports_parity(self):
        from repro.db.bench import build_demo_table, demo_queries, run_bench
        report = run_bench(rows=120, queries=6, repeat=1)
        assert report["rid_parity"] is True
        assert report["cycle_parity"] is True
        assert report["speedup"] > 0
        assert report["queries"] == 6
        metrics = report["engine_metrics"]
        fallbacks = metrics["costmodel.fallbacks"]
        modeled = metrics["costmodel.hits"] + fallbacks
        assert report["costmodel_fallback_share"] == fallbacks / modeled
        # the counters are the three timed rounds', not the process's
        table = build_demo_table(rows=120, seed=42)
        one_round = QueryEngine(cost_model=CostModel())
        one_round.execute_batch(demo_queries(table, count=6, seed=43))
        counts = one_round.cost_model.stats()
        assert fallbacks == 3 * counts["fallbacks"]
        assert modeled == 3 * (counts["hits"] + counts["fallbacks"])

    def test_run_bench_traced_pass(self, tmp_path):
        from repro.db.bench import run_bench
        from repro.telemetry.tracer import validate_chrome_trace
        import json
        path = str(tmp_path / "trace.json")
        report = run_bench(rows=120, queries=6, repeat=1,
                           workers=2, trace_out=path)
        assert report["trace"]["processes"] == 3
        validate_chrome_trace(json.load(open(path)))

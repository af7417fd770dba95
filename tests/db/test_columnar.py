"""Columnar storage differential suite.

The contract under test is ISSUE 10's acceptance bar: the columnar
struct-of-arrays layer must be *byte-identical* to the row-oriented
reference — same RID lists for every predicate shape, sharded and
unsharded, under the cost model and pure ISS — while its delta path
(incremental index merges, delta-aware scan caches, standing queries)
stays equivalent to rebuilding everything from scratch after every
batch, including ghost annihilation and compaction crossings.
"""

import random

import numpy as np
import pytest

from repro.db import (ColumnarIndex, ColumnarTable, DeltaBatch, Eq, In,
                      Or, Query, QueryEngine, Range, ShardedEngine,
                      Table, delta_mask, signature, signature_affected)
from repro.workloads.sets import generate_delta_stream

#: Column domains shared by every table in this suite.
COLUMNS = {"status": 4, "region": 8, "price": 600}

#: Every builtin predicate node type, alone and composed.
SHAPES = [
    Eq("status", 1),
    Range("price", 100, 400),
    In("region", (1, 3, 5)),
    Eq("status", 2) & Range("price", 50, 500),
    Eq("status", 0) | Eq("region", 4),
    (Eq("status", 1) & Range("price", 0, 300)) - In("region", (2, 6)),
    (Range("price", 100, 500) | Eq("status", 3))
    & In("region", (0, 1, 2, 3)),
]


def make_columns(rows, seed):
    rng = random.Random(seed)
    return {name: [rng.randrange(cardinality) for _ in range(rows)]
            for name, cardinality in COLUMNS.items()}


def indexed(table):
    for name in COLUMNS:
        table.create_index(name)
    return table


def build_pair(rows=400, seed=11):
    columns = make_columns(rows, seed)
    return (indexed(Table("orders", columns)),
            indexed(ColumnarTable("orders", columns)))


def rebuilt_copy(table):
    """A from-scratch columnar table with the same live rows and the
    same (sparse) global RIDs — the delta path's ground truth."""
    live = {name: table.column(name) for name in COLUMNS}
    return indexed(ColumnarTable(table.name, live,
                                 rids=table.all_rids()))


def queries_for(table):
    return [Query(table, shape) for shape in SHAPES] + [
        Query(table, SHAPES[3], order_by="price", limit=10),
        Query(table, SHAPES[1], order_by="price", descending=True,
              limit=7),
        Query(table, None, order_by="price", limit=15),
    ]


@pytest.fixture(scope="module")
def delta_stream():
    return generate_delta_stream(
        300, 10, COLUMNS, inserts_per_batch=40, deletes_per_batch=25,
        seed=5, ghost_batches=(2, 7))


class TestDeltaBatch:
    def test_rejects_ragged_inserts(self):
        with pytest.raises(ValueError, match="lengths differ"):
            DeltaBatch(inserts={"a": [1, 2], "b": [3]})

    def test_rejects_duplicate_deletes(self):
        with pytest.raises(ValueError, match="Z-set"):
            DeltaBatch(delete_rids=[4, 4])

    def test_rejects_unsorted_insert_rids(self):
        with pytest.raises(ValueError, match="ascending"):
            DeltaBatch(inserts={"a": [1, 2]}, insert_rids=[9, 3])

    def test_from_spec_roundtrip(self):
        batch = DeltaBatch.from_spec(
            {"insert": {"a": [7]}, "delete_rids": [2]})
        assert batch.insert_count == 1
        assert batch.delete_rids == [2]


class TestIndexScanParity:
    """ColumnarIndex answers == SecondaryIndex answers, all probes."""

    @pytest.fixture(scope="class")
    def pair(self):
        return build_pair()

    def test_scan_eq(self, pair):
        row_table, col_table = pair
        for value in range(-1, COLUMNS["status"] + 1):
            assert col_table.index("status").scan_eq(value).tolist() \
                == row_table.index("status").scan_eq(value).tolist()

    def test_scan_range(self, pair):
        row_table, col_table = pair
        probes = [(0, 599), (100, 400), (None, 250), (250, None),
                  (None, None), (400, 100), (598, 598)]
        for low, high in probes:
            assert col_table.index("price").scan_range(low,
                                                       high).tolist() \
                == row_table.index("price").scan_range(low, high).tolist()

    def test_scan_in_with_duplicate_probes(self, pair):
        row_table, col_table = pair
        for probe in [(1, 3, 5), (5, 3, 1), (2, 2), (), (9, 11)]:
            assert col_table.index("region").scan_in(probe).tolist() \
                == row_table.index("region").scan_in(probe).tolist()

    def test_counts_and_distinct(self, pair):
        row_table, col_table = pair
        for value in range(COLUMNS["status"]):
            assert col_table.index("status").count_eq(value) \
                == row_table.index("status").count_eq(value)
        assert col_table.index("price").count_range(100, 400) \
            == row_table.index("price").count_range(100, 400)
        assert col_table.index("region").distinct_values() \
            == row_table.index("region").distinct_values()

    def test_fetch_parity(self, pair):
        row_table, col_table = pair
        rids = [0, 5, 17, 399]
        assert col_table.fetch(rids) == row_table.fetch(rids)
        assert col_table.fetch([], ["price"]) == []

    def test_fetch_dead_rid_raises(self, pair):
        _row_table, col_table = pair
        with pytest.raises(KeyError, match="no live row"):
            col_table.fetch([10 ** 6])


class TestEngineParity:
    """Full engine byte-parity: RIDs, rows and modeled cycles."""

    @pytest.mark.parametrize("cost_model", (True, False),
                             ids=("costmodel", "iss"))
    def test_unsharded(self, eis_2lsu_partial, cost_model):
        row_table, col_table = build_pair()
        row_engine = QueryEngine(processor=eis_2lsu_partial,
                                 cost_model=cost_model)
        col_engine = QueryEngine(processor=eis_2lsu_partial,
                                 cost_model=cost_model)
        row_results = row_engine.execute_batch(queries_for(row_table))
        col_results = col_engine.execute_batch(queries_for(col_table))
        for col_result, row_result in zip(col_results, row_results):
            assert col_result.rids == row_result.rids
            assert col_result.rows == row_result.rows
            assert col_result.stats.cycles == row_result.stats.cycles

    @pytest.mark.parametrize("partitioner,column",
                             [("hash", None), ("hash", "status"),
                              ("range", "price")])
    def test_sharded(self, partitioner, column):
        row_table, col_table = build_pair(rows=240, seed=23)
        reference = QueryEngine().execute_batch(queries_for(row_table))
        engine = ShardedEngine(shards=3, partitioner=partitioner,
                               partition_column=column)
        results = engine.execute_batch(queries_for(col_table))
        for result, expected in zip(results, reference):
            assert result.rids == expected.rids
            assert result.rows == expected.rows

    def test_workers_mode_on_sparse_rid_space(self, delta_stream):
        """Worker subprocesses must serve the sparse RID space."""
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        for spec in specs[:4]:
            table.apply_delta(DeltaBatch.from_spec(spec))
        engine = QueryEngine()
        serial = engine.execute_batch(queries_for(table))
        parallel = engine.execute_batch(queries_for(table), workers=2)
        for one, other in zip(parallel, serial):
            assert one.rids == other.rids
            assert one.rows == other.rows


class TestDeltaEquivalence:
    """Incremental maintenance == rebuild-from-scratch, every batch."""

    def test_stream_matches_rebuild_and_row_reference(
            self, eis_2lsu_partial, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        for spec in specs:
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            fresh = rebuilt_copy(table)
            fresh_engine = QueryEngine(processor=eis_2lsu_partial)
            results = engine.execute_batch(queries_for(table))
            expected = fresh_engine.execute_batch(queries_for(fresh))
            for result, reference in zip(results, expected):
                assert result.rids == reference.rids
                assert result.rows == reference.rows
            # Row-oriented reference: position -> global RID is a
            # monotonic map, so sorted lists correspond elementwise.
            row_table = indexed(Table("orders", {
                name: table.column(name) for name in COLUMNS}))
            to_global = table.all_rids()
            row_results = QueryEngine(
                processor=eis_2lsu_partial).execute_batch(
                    queries_for(row_table))
            for result, reference in zip(results, row_results):
                assert result.rids == [to_global[rid]
                                       for rid in reference.rids]
        assert table.rid_limit() == 300 + 10 * 40
        assert table.index("price").delta_merges > 0

    def test_ghost_rows_never_observable(self):
        table = indexed(ColumnarTable("t", make_columns(50, 3)))
        before = table.all_rids().tolist()
        batch = DeltaBatch(
            inserts={"status": [1, 2], "region": [0, 1],
                     "price": [10, 20]},
            delete_rids=[50, 51])
        outcome = table.apply_delta(batch)
        assert outcome["annihilated"] == 2
        assert len(outcome["insert_rids"]) == 0
        assert len(outcome["deleted_rids"]) == 0
        assert table.all_rids().tolist() == before
        # ...but the annihilated rows still consumed RID space.
        assert table.rid_limit() == 52
        assert table.index("status").scan_eq(1).tolist() == [
            rid for rid in before
            if table.fetch([rid])[0]["status"] == 1]

    def test_compaction_preserves_rids_and_results(self):
        table = indexed(ColumnarTable("t", make_columns(80, 9),
                                      compact_threshold=0.2))
        rng = random.Random(17)
        live = list(range(80))
        while len(live) > 30:
            victims = sorted(rng.sample(live, 10))
            table.apply_delta(DeltaBatch(delete_rids=victims))
            live = [rid for rid in live if rid not in set(victims)]
            assert table.all_rids().tolist() == live
            fresh = rebuilt_copy(table)
            for shape in SHAPES:
                column = shape.column if hasattr(shape, "column") \
                    else "price"
                assert table.index(column).scan_range(0, 599).tolist() \
                    == fresh.index(column).scan_range(0, 599).tolist()
        assert table.compactions > 0

    def test_delete_of_missing_rid_raises(self):
        table = indexed(ColumnarTable("t", make_columns(10, 1)))
        table.apply_delta(DeltaBatch(delete_rids=[4]))
        with pytest.raises(KeyError, match="no live row"):
            table.apply_delta(DeltaBatch(delete_rids=[4]))

    def test_partial_row_insert_rejected(self):
        table = indexed(ColumnarTable("t", make_columns(10, 1)))
        with pytest.raises(ValueError, match="full rows"):
            table.apply_delta(DeltaBatch(inserts={"status": [1]}))


class TestScanCacheUnderDeltas:
    """The delta-aware scan cache is never stale, yet still hits."""

    def test_differential_never_stale(self, eis_2lsu_partial,
                                      delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        queries = [Query(table, shape) for shape in SHAPES]
        for spec in specs:
            engine.execute_batch(queries)  # warm / re-warm the cache
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            results = engine.execute_batch(queries)
            expected = QueryEngine(
                processor=eis_2lsu_partial).execute_batch(queries)
            assert [r.rids for r in results] \
                == [r.rids for r in expected]
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.scan_cache.hits"] > 0
        assert snapshot["db.engine.scan_cache.invalidated"] > 0
        assert snapshot["db.engine.deltas"] == len(specs)
        assert snapshot["db.engine.delta_rows"] > 0

    def test_untouched_entries_survive(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", {
            "status": [0, 1, 2, 3], "region": [0, 1, 2, 3],
            "price": [10, 20, 30, 40]}))
        engine = QueryEngine(processor=eis_2lsu_partial)
        hot = Query(table, Eq("status", 0))
        cold = Query(table, Eq("status", 3))
        engine.execute_batch([hot, cold])
        outcome = engine.apply_delta(table, DeltaBatch(
            inserts={"status": [0], "region": [5], "price": [50]}))
        assert outcome["invalidated"] == 1
        hits_before = engine.metrics_snapshot()[
            "db.engine.scan_cache.hits"]
        results = engine.execute_batch([hot, cold])
        assert results[0].rids == [0, 4]
        assert results[1].rids == [3]
        assert engine.metrics_snapshot()["db.engine.scan_cache.hits"] \
            == hits_before + 1

    def test_untouched_combinators_survive(self, eis_2lsu_partial):
        """A delta drops exactly the combinator entries above a leaf it
        touched; the survivors hit and replay their cycles."""
        table = indexed(ColumnarTable("t", {
            "status": [0, 1, 2, 3], "region": [0, 1, 2, 3],
            "price": [10, 20, 30, 40]}))
        engine = QueryEngine(processor=eis_2lsu_partial)
        hot = Query(table, Eq("status", 0) | Eq("region", 1))
        cold = Query(table, Eq("status", 3) & Range("price", 35, 45))
        first = engine.execute_batch([hot, cold])
        outcome = engine.apply_delta(table, DeltaBatch(
            inserts={"status": [0], "region": [5], "price": [50]}))
        assert outcome["invalidated"] == 2  # status = 0 and the union
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.scan_cache.invalidated"] == 1
        assert snapshot["db.engine.result_cache.invalidated"] == 1
        results = engine.execute_batch([hot, cold])
        assert results[0].rids == [0, 1, 4]
        assert results[1].rids == [3]
        assert results[1].stats.to_dict() == first[1].stats.to_dict()
        after = engine.metrics_snapshot()
        assert after["db.engine.result_cache.hits"] == 1
        assert after["db.engine.result_cache.misses"] == 3

    def test_row_table_is_not_delta_capable(self, eis_2lsu_partial):
        table = indexed(Table("t", make_columns(10, 2)))
        engine = QueryEngine(processor=eis_2lsu_partial)
        with pytest.raises(TypeError, match="delta-capable"):
            engine.apply_delta(table, DeltaBatch(delete_rids=[1]))


class TestStandingQueries:
    def test_standing_tracks_full_reevaluation(self, eis_2lsu_partial,
                                               delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        standings = [engine.register_standing(Query(table, shape))
                     for shape in SHAPES]
        for spec in specs:
            outcome = engine.apply_delta(table,
                                         DeltaBatch.from_spec(spec))
            assert len(outcome["updates"]) == len(standings)
            fresh_engine = QueryEngine(processor=eis_2lsu_partial)
            for standing, shape in zip(standings, SHAPES):
                expected, _stats = fresh_engine.evaluate_predicate(
                    table, shape)
                assert standing.rids == expected.tolist()
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.standing.registered"] == len(SHAPES)
        assert snapshot["db.engine.standing.updates"] > 0

    def test_updates_are_output_deltas(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", {
            "status": [0, 0, 1], "region": [0, 1, 2],
            "price": [5, 6, 7]}))
        engine = QueryEngine(processor=eis_2lsu_partial)
        standing = engine.register_standing(
            Query(table, Eq("status", 0)))
        assert standing.rids == [0, 1]
        outcome = engine.apply_delta(table, DeltaBatch(
            inserts={"status": [0, 1], "region": [3, 4],
                     "price": [8, 9]},
            delete_rids=[0]))
        update = outcome["updates"][0]
        assert update.added == [3]
        assert update.removed == [0]
        assert standing.rids == [1, 3]

    def test_rejects_non_where_shapes(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", make_columns(10, 4)))
        engine = QueryEngine(processor=eis_2lsu_partial)
        with pytest.raises(ValueError, match="pure WHERE"):
            engine.register_standing(
                Query(table, Eq("status", 0), order_by="price"))


class TestShardedDeltas:
    """Delta routing through frozen routers keeps shards consistent."""

    @pytest.mark.parametrize("partitioner,column",
                             [("hash", None), ("hash", "status"),
                              ("range", "price"), ("range", None)])
    def test_sharded_stream_parity(self, eis_2lsu_partial, partitioner,
                                   column, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = ShardedEngine(shards=3, partitioner=partitioner,
                               partition_column=column)
        queries = [Query(table, shape) for shape in SHAPES]
        for spec in specs[:6]:
            engine.execute_batch(queries)  # warm the result caches
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            results = engine.execute_batch(queries)
            expected = QueryEngine(
                processor=eis_2lsu_partial).execute_batch(queries)
            assert [r.rids for r in results] \
                == [r.rids for r in expected]
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.deltas"] == 6
        hits = sum(snapshot["db.shard.%d.engine.result_cache.hits"
                            % position] for position in range(3))
        assert hits > 0

    def test_shard_tables_share_global_rid_space(self, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = ShardedEngine(shards=3)
        shards = engine.shards_for(table)
        held = sorted(rid for shard in shards
                      for rid in shard.held_rids().tolist())
        assert held == table.all_rids().tolist()
        engine.apply_delta(table, DeltaBatch.from_spec(specs[0]))
        held = sorted(rid for shard in engine.shards_for(table)
                      for rid in shard.held_rids().tolist())
        assert held == table.all_rids().tolist()


class TestDeltaHelpers:
    def test_delta_mask_matches_scans(self):
        columns = {name: np.asarray(values, dtype=np.int64)
                   for name, values in make_columns(120, 8).items()}
        table = indexed(ColumnarTable("t", {
            name: values.tolist() for name, values in columns.items()}))
        engine = QueryEngine()
        for shape in SHAPES:
            mask = delta_mask(shape, columns)
            expected, _stats = engine.evaluate_predicate(table, shape)
            assert np.flatnonzero(mask).tolist() == expected.tolist()

    def test_signature_affected_overlap_rules(self):
        touched = {"price": np.asarray([100, 250]),
                   "status": np.asarray([2])}
        assert signature_affected(signature(Eq("status", 2)), touched)
        assert not signature_affected(signature(Eq("status", 1)),
                                      touched)
        assert signature_affected(signature(Range("price", 200, 300)),
                                  touched)
        assert not signature_affected(
            signature(Range("price", 300, 400)), touched)
        assert not signature_affected(signature(In("region", (1, 2))),
                                      touched)
        assert signature_affected(
            signature(Eq("status", 1) | Eq("status", 2)), touched)


    def test_signature_affected_matches_isin_reference(self):
        """Binary search over the sorted footprint answers exactly what
        the per-leaf ``np.isin`` scan it replaced answered, with and
        without a memo shared across one invalidation pass."""
        def reference(sig, touched):
            kind = sig[0]
            if kind in ("intersection", "union", "difference"):
                return reference(sig[1], touched) \
                    or reference(sig[2], touched)
            values = touched.get(sig[1])
            if values is None or not values.size:
                return False
            if kind == "eq":
                return bool(np.isin(sig[2], values))
            if kind == "range":
                mask = np.ones(values.size, dtype=bool)
                if sig[2] is not None:
                    mask &= values >= sig[2]
                if sig[3] is not None:
                    mask &= values <= sig[3]
                return bool(mask.any())
            return bool(np.isin(np.asarray(list(sig[2]),
                                           dtype=np.int64),
                                values).any())

        rng = random.Random(23)

        def value():
            # mostly in the 0..99 domain, sometimes far outside it
            return rng.choice((rng.randrange(100), rng.randrange(100),
                               -rng.randrange(1, 50),
                               100 + rng.randrange(1000)))

        def leaf():
            column = rng.choice(("a", "b", "c"))
            kind = rng.randrange(3)
            if kind == 0:
                return Eq(column, value())
            if kind == 1:
                low = None if rng.random() < 0.2 else value()
                high = None if rng.random() < 0.2 else value()
                return Range(column, low, high)
            return In(column, tuple(value() for _ in
                                    range(rng.randrange(4))))

        def tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return leaf()
            left, right = tree(depth - 1), tree(depth - 1)
            return rng.choice((left & right, left | right,
                               left - right))

        def footprint():
            shape = rng.randrange(4)
            if shape == 0:
                sizes = {"a": 0, "b": 0}
            elif shape == 1:
                sizes = {"a": 1, "c": 1}
            else:
                sizes = {column: rng.randrange(1, 40)
                         for column in ("a", "b", "c")}
            touched = {}
            for column, size in sizes.items():
                if shape == 3:  # entirely outside the predicate domain
                    raw = [rng.choice((-500 - rng.randrange(100),
                                       5000 + rng.randrange(100)))
                           for _ in range(size)]
                else:
                    raw = [value() for _ in range(size)]
                touched[column] = np.unique(np.asarray(raw,
                                                       dtype=np.int64))
            return touched

        # probes on, inside and just past the ends of the footprint
        ends = {"a": np.asarray([3, 7, 11], dtype=np.int64)}
        for leaf_predicate in (Eq("a", 11), Eq("a", 3), Eq("a", 12),
                               In("a", (12, 11)), In("a", (3,)),
                               In("a", (2, 12)), Range("a", 11, 11),
                               Range("a", None, 3), Range("a", 12, None),
                               Range("a", 8, 10), Range("a", 2, 2)):
            sig = signature(leaf_predicate)
            assert signature_affected(sig, ends) == reference(sig, ends)

        signatures = [signature(tree(3)) for _ in range(300)]
        checked = 0
        for _pass in range(40):
            touched = footprint()
            memo = {}
            for sig in signatures:
                expected = reference(sig, touched)
                assert signature_affected(sig, touched) == expected, sig
                assert signature_affected(sig, touched, memo) \
                    == expected, sig
                checked += expected
        assert 0 < checked < 40 * len(signatures)


def plain(outcome):
    """A cost-model ``(values, cycles, source)`` with a list of values."""
    values, cycles, source = outcome
    return values.tolist(), cycles, source


class TestCostModelOperands:
    """The public cost-model API accepts list and ndarray operands."""

    def test_set_operation_ndarray_equals_list(self, eis_2lsu_partial):
        from repro.core.costmodel import CostModel
        model = CostModel()
        set_a = sorted(random.Random(3).sample(range(4000), 300))
        set_b = sorted(random.Random(4).sample(range(4000), 250))
        for which in ("intersection", "union", "difference"):
            expected = model.set_operation(eis_2lsu_partial, which,
                                           set_a, set_b)
            got = model.set_operation(
                eis_2lsu_partial, which,
                np.asarray(set_a, dtype=np.int64),
                np.asarray(set_b, dtype=np.int64))
            assert plain(got) == plain(expected)

    def test_merge_sort_ndarray_equals_list(self, eis_2lsu_partial):
        from repro.core.costmodel import CostModel
        model = CostModel()
        values = random.Random(5).sample(range(4000), 200)
        expected = model.merge_sort(eis_2lsu_partial, values)
        got = model.merge_sort(eis_2lsu_partial,
                               np.asarray(values, dtype=np.int64))
        assert plain(got) == plain(expected)
        assert plain(model.merge_sort(eis_2lsu_partial,
                                      np.asarray([], dtype=np.int64))) \
            == plain(model.merge_sort(eis_2lsu_partial, []))

"""Tests for the columnar engine layer (tables, predicates, executor)."""

import random

import pytest

from repro.db import (And, AndNot, Eq, In, Or, QueryExecutor, Range,
                      Table, leaves, validate_indexes)


@pytest.fixture(scope="module")
def table():
    rng = random.Random(11)
    n = 1200
    table = Table("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(6) for _ in range(n)],
        "priority": [rng.randrange(10) for _ in range(n)],
        "amount": [rng.randrange(50_000) for _ in range(n)],
    })
    for column in ("status", "region", "priority"):
        table.create_index(column)
    return table


def ground_truth(table, row_predicate):
    return sorted(rid for rid in range(table.row_count)
                  if row_predicate({name: column[rid] for name, column
                                    in table.columns.items()}))


class TestTable:
    def test_column_lengths_validated(self):
        with pytest.raises(ValueError, match="lengths"):
            Table("bad", {"a": [1, 2], "b": [1]})

    def test_value_range_validated(self):
        with pytest.raises(ValueError, match="32-bit"):
            Table("bad", {"a": [0xFFFFFFFF]})

    def test_fetch_projects_columns(self, table):
        rows = table.fetch([0, 1], ["status"])
        assert set(rows[0]) == {"status"}

    def test_missing_column(self, table):
        with pytest.raises(KeyError):
            table.column("nope")

    def test_index_required_before_use(self, table):
        with pytest.raises(KeyError, match="no index"):
            table.index("amount")


class TestSecondaryIndex:
    def test_eq_scan_matches_column(self, table):
        rids = table.index("status").scan_eq(2).tolist()
        assert rids == [rid for rid in range(table.row_count)
                        if table.columns["status"][rid] == 2]

    def test_range_scan_inclusive(self, table):
        rids = table.index("priority").scan_range(3, 5).tolist()
        expected = [rid for rid in range(table.row_count)
                    if 3 <= table.columns["priority"][rid] <= 5]
        assert rids == expected

    def test_open_ended_ranges(self, table):
        low_only = table.index("priority").scan_range(low=8)
        assert all(table.columns["priority"][rid] >= 8
                   for rid in low_only)
        high_only = table.index("priority").scan_range(high=1)
        assert all(table.columns["priority"][rid] <= 1
                   for rid in high_only)

    def test_in_scan(self, table):
        rids = table.index("region").scan_in([0, 5]).tolist()
        assert rids == sorted(rids)
        assert all(table.columns["region"][rid] in (0, 5)
                   for rid in rids)

    def test_missing_value(self, table):
        assert table.index("status").scan_eq(99).tolist() == []


class TestPredicates:
    def test_operator_sugar(self):
        predicate = (Eq("a", 1) & Range("b", 0, 5)) | In("c", [1])
        assert isinstance(predicate, Or)
        assert isinstance(predicate.left, And)
        assert [leaf.column for leaf in leaves(predicate)] \
            == ["a", "b", "c"]

    def test_validate_indexes(self, table):
        with pytest.raises(KeyError, match="amount"):
            validate_indexes(Eq("amount", 3), table)


@pytest.fixture(scope="module", params=["DBA_2LSU_EIS", "DBA_1LSU"],
                ids=["eis", "scalar"])
def executor(request):
    from repro.configs.catalog import build_processor
    return QueryExecutor(build_processor(request.param))


class TestWhere:
    def test_conjunction(self, table, executor):
        rids, stats = executor.where(table,
                                     Eq("status", 1) & Eq("region", 2))
        expected = ground_truth(
            table, lambda row: row["status"] == 1 and row["region"] == 2)
        assert rids.tolist() == expected
        assert stats.set_operations == 1
        assert stats.index_scans == 2
        assert stats.cycles > 0

    def test_disjunction(self, table, executor):
        rids, _stats = executor.where(table,
                                      Eq("status", 0) | Eq("status", 3))
        expected = ground_truth(table,
                                lambda row: row["status"] in (0, 3))
        assert rids.tolist() == expected

    def test_andnot(self, table, executor):
        predicate = AndNot(Range("priority", 5, 9), Eq("region", 1))
        rids, _stats = executor.where(table, predicate)
        expected = ground_truth(
            table, lambda row: 5 <= row["priority"] <= 9
            and row["region"] != 1)
        assert rids.tolist() == expected

    def test_nested_tree(self, table, executor):
        predicate = (Eq("status", 1) & Range("priority", 5, 9)) \
            | In("region", [2, 3])
        rids, stats = executor.where(table, predicate)
        expected = ground_truth(
            table,
            lambda row: (row["status"] == 1
                         and 5 <= row["priority"] <= 9)
            or row["region"] in (2, 3))
        assert rids.tolist() == expected
        assert stats.set_operations == 2

    def test_empty_result(self, table, executor):
        rids, _stats = executor.where(table,
                                      Eq("status", 1) & Eq("status", 2))
        assert rids.tolist() == []


class TestOrderByAndSelect:
    def test_order_by_sorts_by_key(self, table, executor):
        rids, stats = executor.order_by(
            table, list(range(table.row_count)), "amount")
        amounts = [table.columns["amount"][rid] for rid in rids]
        assert amounts == sorted(amounts)
        assert stats.sort_operations == 1

    def test_order_by_descending(self, table, executor):
        rids, _stats = executor.order_by(table, [0, 1, 2, 3, 4],
                                         "amount", descending=True)
        amounts = [table.columns["amount"][rid] for rid in rids]
        assert amounts == sorted(amounts, reverse=True)

    def test_full_select(self, table, executor):
        rows, stats = executor.select(
            table, predicate=Eq("status", 2), order_by="amount",
            limit=10, columns=["amount", "status"])
        assert len(rows) <= 10
        amounts = [row["amount"] for row in rows]
        assert amounts == sorted(amounts)
        assert all(row["status"] == 2 for row in rows)
        assert stats.index_scans == 1

    def test_select_without_predicate(self, table, executor):
        rows, _stats = executor.select(table, order_by="amount",
                                       limit=3)
        assert len(rows) == 3

    def test_order_by_key_width_guard(self, executor):
        wide = Table("wide", {"key": [1 << 20]})
        with pytest.raises(ValueError, match="dictionary"):
            executor.order_by(wide, [0], "key")

    def test_order_by_row_count_guard(self, executor):
        big = Table("big", {"key": [0] * 5000})
        with pytest.raises(ValueError, match="4096"):
            executor.order_by(big, list(range(5000)), "key")

    def test_empty_rid_list(self, table, executor):
        rids, stats = executor.order_by(table, [], "amount")
        assert rids.tolist() == []
        assert stats.cycles == 0


class TestEisScalarAgreement:
    def test_both_executors_agree(self, table):
        from repro.configs.catalog import build_processor
        eis = QueryExecutor(build_processor("DBA_2LSU_EIS"))
        scalar = QueryExecutor(build_processor("DBA_1LSU"))
        predicate = (Range("priority", 2, 7) & Eq("region", 4)) \
            | Eq("status", 0)
        eis_rids, eis_stats = eis.where(table, predicate)
        scalar_rids, scalar_stats = scalar.where(table, predicate)
        assert eis_rids.tolist() == scalar_rids.tolist()
        assert eis_stats.cycles < scalar_stats.cycles  # acceleration

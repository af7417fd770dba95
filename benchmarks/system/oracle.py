"""Reference answers the benchmark checks every output against.

The oracle shares no code with the system under test: WHERE trees are
evaluated as NumPy masks over the live rows, ORDER BY is
``np.lexsort((rid, key))`` (the order ``key << RID_BITS | rid`` packing
produces) and deltas are mirrored with the table's RID assignment
(inserts take the next RIDs in order, deletes drop rows).
"""

import numpy as np

from repro.db import And, AndNot, Eq, In, Or, Range


class TableOracle:
    """Live rows of one table as NumPy arrays, in RID order."""

    def __init__(self, columns):
        self.names = list(columns)
        self.columns = {name: np.asarray(values, dtype=np.int64)
                        for name, values in columns.items()}
        count = len(next(iter(self.columns.values())))
        self.rids = np.arange(count, dtype=np.int64)
        self.next_rid = count

    # -- WHERE / ORDER BY / LIMIT -------------------------------------

    def mask(self, predicate):
        if isinstance(predicate, Eq):
            return self.columns[predicate.column] == predicate.value
        if isinstance(predicate, In):
            return np.isin(self.columns[predicate.column],
                           np.asarray(predicate.values, dtype=np.int64))
        if isinstance(predicate, Range):
            values = self.columns[predicate.column]
            mask = np.ones(values.size, dtype=bool)
            if predicate.low is not None:
                mask &= values >= predicate.low
            if predicate.high is not None:
                mask &= values <= predicate.high
            return mask
        left = self.mask(predicate.left)
        right = self.mask(predicate.right)
        if isinstance(predicate, And):
            return left & right
        if isinstance(predicate, Or):
            return left | right
        if isinstance(predicate, AndNot):
            return left & ~right
        raise TypeError("oracle cannot evaluate %r" % (predicate,))

    def where(self, predicate):
        return self.rids[self.mask(predicate)]

    def answer(self, query):
        """Expected ``(rids, positions)`` of one query."""
        if query.predicate is None:
            positions = np.arange(self.rids.size)
        else:
            positions = np.flatnonzero(self.mask(query.predicate))
        if query.order_by is not None:
            keys = self.columns[query.order_by][positions]
            positions = positions[np.lexsort((self.rids[positions], keys))]
            if query.descending:
                positions = positions[::-1]
        if query.limit is not None:
            positions = positions[:query.limit]
        return self.rids[positions], positions

    def check(self, query, result):
        """Whether a served result has the expected RIDs and rows."""
        rids, positions = self.answer(query)
        if list(result.rids) != rids.tolist():
            return False
        if len(result.rows) != rids.size:
            return False
        for name in query.columns or self.names:
            served = [row[name] for row in result.rows]
            if served != self.columns[name][positions].tolist():
                return False
        return True

    # -- deltas --------------------------------------------------------

    def apply(self, batch):
        """Mirror one ``DeltaBatch`` (no same-batch ghost rows)."""
        keep = ~np.isin(self.rids, np.asarray(batch.delete_rids,
                                              dtype=np.int64))
        count = batch.insert_count
        new_rids = np.arange(self.next_rid, self.next_rid + count,
                             dtype=np.int64)
        self.next_rid += count
        self.rids = np.concatenate([self.rids[keep], new_rids])
        for name in self.names:
            self.columns[name] = np.concatenate([
                self.columns[name][keep],
                np.asarray(batch.inserts[name], dtype=np.int64)])


def check_set_operation(which, set_a, set_b, values):
    expected = {"intersection": set(set_a) & set(set_b),
                "union": set(set_a) | set(set_b),
                "difference": set(set_a) - set(set_b)}[which]
    return list(values) == sorted(expected)


def check_sort(data, values):
    return list(values) == sorted(data)

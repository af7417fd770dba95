"""A minimal columnar table with secondary indexes.

The paper motivates its instruction set with query processing over RID
sets "obtained from secondary indices when complex selection predicates
within the WHERE clause are specified" (Section 2.3).  This package is
that surrounding database-engine layer: enough of a column store to
pose WHERE/ORDER BY queries whose heavy lifting — RID-list set algebra
and sorting — runs on the database processor.

Values are 32-bit unsigned integers (the paper's element type); strings
or other domains are assumed dictionary-encoded upstream.  RID lists
are read-only int64 arrays, as everywhere in the engine.
"""

import bisect

import numpy as np

from ..core.common import SENTINEL


class Table:
    """A fixed set of integer columns of equal length."""

    #: Row tables are immutable; a ColumnarTable bumps its version on
    #: every delta (resident shard hosts compare it).
    version = 0

    def __init__(self, name, columns):
        self.name = name
        self.columns = {}
        length = None
        for column_name, values in columns.items():
            values = list(values)
            for value in values:
                if not 0 <= value < SENTINEL:
                    raise ValueError(
                        "%s.%s: values must be 32-bit below the "
                        "sentinel" % (name, column_name))
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise ValueError("column lengths differ in table %s"
                                 % name)
            self.columns[column_name] = values
        self.row_count = length or 0
        self._indexes = {}

    def column(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError("table %s has no column %r"
                           % (self.name, name)) from None

    def create_index(self, column_name):
        """Build (or return) the secondary index on a column."""
        if column_name not in self._indexes:
            self._indexes[column_name] = SecondaryIndex(
                column_name, self.column(column_name))
        return self._indexes[column_name]

    def index(self, column_name):
        if column_name not in self._indexes:
            raise KeyError("no index on %s.%s; call create_index"
                           % (self.name, column_name))
        return self._indexes[column_name]

    def has_index(self, column_name):
        return column_name in self._indexes

    def fetch(self, rids, column_names=None):
        """Materialize rows (as dicts) for a RID list."""
        pairs = [(name, self.columns[name])
                 for name in (column_names or self.columns)]
        return [{name: values[rid] for name, values in pairs}
                for rid in np.asarray(rids, dtype=np.int64).tolist()]

    def all_rids(self):
        """Sorted live RIDs (dense ``0..row_count`` here; the columnar
        table's RID space is sparse, so full scans go through this)."""
        return np.arange(self.row_count, dtype=np.int64)

    def rid_limit(self):
        """Exclusive upper bound of the RID space (= rows here)."""
        return self.row_count

    def rid_indexed_column(self, name):
        """``sequence[rid] -> value`` lookup for the packing path."""
        return self.column(name)

    def __repr__(self):
        return "<Table %s %d rows x %d columns>" % (
            self.name, self.row_count, len(self.columns))


class SecondaryIndex:
    """Value -> sorted RID list, supporting equality and range scans.

    Scans return strictly-sorted RID arrays, the operand format of the
    EIS set instructions.

    The index is a clustered postings layout: one array of (value, rid)
    pairs sorted by value (RIDs within one value stay ascending because
    the sort is stable over the enumeration order), plus the sorted
    distinct keys and per-key offsets into the RID array.  Every scan
    is a bisect over the key array followed by a slice — no linear walk
    over the full posting dictionary.
    """

    def __init__(self, column_name, values):
        self.column_name = column_name
        pairs = sorted((value, rid) for rid, value in enumerate(values))
        self._rids = np.array([rid for _value, rid in pairs],
                              dtype=np.int64)
        # scans hand out views of this array
        self._rids.flags.writeable = False
        keys = []
        offsets = []
        previous = None
        for position, (value, _rid) in enumerate(pairs):
            if value != previous:
                keys.append(value)
                offsets.append(position)
                previous = value
        offsets.append(len(pairs))
        self._sorted_keys = keys
        self._offsets = offsets

    def _key_span(self, value):
        """``(start, end)`` slice of ``_rids`` for one key via bisect."""
        position = bisect.bisect_left(self._sorted_keys, value)
        if position == len(self._sorted_keys) \
                or self._sorted_keys[position] != value:
            return 0, 0
        return self._offsets[position], self._offsets[position + 1]

    def scan_eq(self, value):
        """RIDs of rows where column == value."""
        start, end = self._key_span(value)
        return self._rids[start:end]

    def scan_range(self, low=None, high=None):
        """RIDs of rows where low <= column <= high (inclusive).

        The slice is a concatenation of RID-ascending per-key runs,
        which a stable sort merges; a single-key span skips the sort
        entirely.  The columnar index avoids the merge outright — its
        scans are born RID-ordered.
        """
        keys = self._sorted_keys
        first = 0 if low is None else bisect.bisect_left(keys, low)
        last = len(keys) if high is None else bisect.bisect_right(keys,
                                                                  high)
        if first >= last:
            return self._rids[:0]
        span = self._rids[self._offsets[first]:self._offsets[last]]
        return span if last - first == 1 else np.sort(span, kind="stable")

    def count_eq(self, value):
        """Matching-row count of ``scan_eq`` without materializing."""
        start, end = self._key_span(value)
        return end - start

    def count_range(self, low=None, high=None):
        """Matching-row count of ``scan_range`` without materializing.

        The shard pruning pass probes every (shard, leaf) pair per
        query, so emptiness checks must stay two bisects + a
        subtraction rather than a slice-and-sort.
        """
        keys = self._sorted_keys
        first = 0 if low is None else bisect.bisect_left(keys, low)
        last = len(keys) if high is None else bisect.bisect_right(keys,
                                                                  high)
        if first >= last:
            return 0
        return self._offsets[last] - self._offsets[first]

    def scan_in(self, values):
        """RIDs of rows where column is in *values*.

        The concatenated per-value runs are each RID-ascending, so a
        stable sort merges them (see :meth:`scan_range`); duplicate
        probe values still replicate their matches, as before.
        """
        spans = [self._rids[:0]]
        for value in values:
            start, end = self._key_span(value)
            spans.append(self._rids[start:end])
        return np.sort(np.concatenate(spans), kind="stable")

    def distinct_values(self):
        return list(self._sorted_keys)

    def __repr__(self):
        return "<SecondaryIndex %s: %d distinct values>" % (
            self.column_name, len(self._sorted_keys))

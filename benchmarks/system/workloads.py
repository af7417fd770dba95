"""The five workloads of the system benchmark.

Each workload makes its inputs from the seed when constructed
(untimed), builds the system under test in :meth:`Workload.setup`
(timed as ``setup_s``), and serves one operation per
:meth:`Workload.serve` call (timed).  :meth:`Workload.prepare` builds
the next request and :meth:`Workload.check` compares the response with
the oracle; both run outside the timed region.  Operations are numbered
from 0 and requested in order, so the request stream is a pure function
of the seed.

Requests are built from the public ``Eq``/``In``/``Range``/``Query``
API; tables are ``ColumnarTable``\\ s.
"""

import math
import multiprocessing
import random
import time

from repro.configs.catalog import build_processor
from repro.core import kernels
from repro.core.costmodel import CostModel
from repro.db import (ColumnarTable, DeltaBatch, Eq, In, Query,
                      QueryEngine, Range, ShardedEngine, signature,
                      skew_ratio)
from repro.workloads.sets import (generate_delta_stream, generate_set_pair,
                                  zipf_weights)
from repro.workloads.sorting import random_values

from hostprobe import HostProbe, TwoCoreProbe
from oracle import TableOracle, check_set_operation, check_sort

#: Queries per request of the serving workloads.
REQUEST_QUERIES = 8

SET_OPERATIONS = ("intersection", "union", "difference")


def _rng(seed, tag):
    """A ``random.Random`` for one input stream of one workload."""
    return random.Random("%d:%s" % (seed, tag))


def _wait_for_children(timeout=30.0):
    """Join every child process (pool workers) this process started."""
    deadline = time.monotonic() + timeout
    children = multiprocessing.active_children()
    while children:
        if time.monotonic() > deadline:
            raise RuntimeError("child processes still running: %r"
                               % (children,))
        for child in children:
            child.join(0.1)
        children = multiprocessing.active_children()


class Workload:
    """One traffic mix; subclasses fill in the five hooks.

    *seconds* is how long the run measures; a workload whose inputs
    are precomputed makes enough of them for that.
    """

    name = None
    #: How host speed is probed: on the cores the work runs on.
    probe = HostProbe

    def __init__(self, seed, params, seconds=0.0):
        self.seed = seed
        self.params = params
        #: Length of the modeled pass and of the checked prefix: the
        #: modeled metric averages the first ``modeled_ops`` operations
        #: on fixed inputs, and the measured loop serves at least this
        #: many, which the costlier cross-checks cover.
        self.modeled_ops = params["modeled_ops"]
        #: Operations the inputs allow.
        self.operations = math.inf
        #: Per-run tallies the trace's ratio metrics use as bases.
        self.counts = {"requests": 0, "queries": 0, "result_rows": 0}

    def setup(self):
        raise NotImplementedError

    def prepare(self, index):
        raise NotImplementedError

    def serve(self, request):
        raise NotImplementedError

    def check(self, index, request, response):
        raise NotImplementedError

    def modeled_cycles(self, response):
        raise NotImplementedError

    def snapshot(self):
        """Counters of the system under test (``metrics_snapshot``)."""
        return {}

    def reference_metrics(self, probe):
        """Extra untraced measurements reported with the trace."""
        return {}

    def close(self):
        pass

    def _count_results(self, results):
        self.counts["requests"] += 1
        self.counts["queries"] += len(results)
        self.counts["result_rows"] += sum(len(result.rows)
                                          for result in results)


# ---------------------------------------------------------------------------
# serving on the single engine
# ---------------------------------------------------------------------------

def _orders_columns(rng, rows):
    return {"status": [rng.randrange(4) for _ in range(rows)],
            "region": [rng.randrange(8) for _ in range(rows)],
            "price": [rng.randrange(1000) for _ in range(rows)]}


def _indexed_table(name, columns):
    table = ColumnarTable(name, columns)
    for column in columns:
        table.create_index(column)
    return table


def demo_query(rng):
    """``(predicate, order_by, limit)`` of one demo-mix query."""
    predicate = (Eq("status", rng.randrange(4))
                 & Range("price", rng.randrange(300),
                         300 + rng.randrange(700)))
    if rng.random() < 0.5:
        predicate = predicate | Eq("region", rng.randrange(8))
    if rng.random() < 0.25:
        predicate = predicate - In("region",
                                   tuple(sorted(rng.sample(range(8), 2))))
    order_by = "price" if rng.random() < 0.7 else None
    limit = None if rng.random() < 0.2 else rng.choice((10, 50))
    return predicate, order_by, limit


def demo_request(rng):
    """Eight demo queries; ~25% repeat an earlier one of the request."""
    specs = []
    while len(specs) < REQUEST_QUERIES:
        if specs and rng.random() < 0.25:
            specs.append(rng.choice(specs))
        else:
            specs.append(demo_query(rng))
    return specs


class _Serving(Workload):
    """Shared table, oracle and response checks of the serve pair."""

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        self.columns = _orders_columns(_rng(seed, "table"),
                                       params["rows"])
        self.oracle = TableOracle(self.columns)
        self.engine = None
        self.table = None

    def _build(self):
        self.table = _indexed_table("orders", self.columns)
        self.engine = QueryEngine()

    def _queries(self, specs):
        return [Query(self.table, predicate, order_by=order_by,
                      limit=limit)
                for predicate, order_by, limit in specs]

    def serve(self, request):
        return self.engine.execute_batch(request)

    def check(self, index, request, response):
        self._count_results(response)
        return len(response) == len(request) and all(
            self.oracle.check(query, result)
            for query, result in zip(request, response))

    def modeled_cycles(self, response):
        return sum(result.stats.cycles for result in response)

    def snapshot(self):
        return self.engine.metrics_snapshot()


class ServeCold(_Serving):
    """The demo mix with the scan cache cleared before every request."""

    name = "serve_cold"

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        self._requests = _rng(seed, "requests")
        self._iss = None

    def setup(self):
        self._build()
        # One request calibrates the cost model and compiles kernels.
        self.engine.execute_batch(
            self._queries(demo_request(_rng(0, "warmup"))))

    def prepare(self, index):
        self.engine.clear_caches()
        return self._queries(demo_request(self._requests))

    def check(self, index, request, response):
        if not super().check(index, request, response):
            return False
        if index >= self.modeled_ops \
                or index % self.params["iss_every"]:
            return True
        # Re-serve on the instruction-set simulator: same RIDs, same
        # cycles, query for query.
        if self._iss is None:
            self._iss = QueryEngine(cost_model=False)
        self._iss.clear_caches()
        reference = self._iss.execute_batch(request)
        return all(got.rids == ref.rids
                   and got.stats.cycles == ref.stats.cycles
                   for got, ref in zip(response, reference))


class ServeHot(_Serving):
    """Zipf draws from a fixed pool on one long-lived engine.

    The pool is the same for every seed (the seed picks the table and
    the draws): under Zipf draws a handful of popular queries set the
    mean request cost, so a pool per seed would let the seed, not the
    code, decide the throughput.
    """

    name = "serve_hot"

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        pool_rng = _rng(0, "pool")
        self.pool = [demo_query(pool_rng) for _ in range(params["pool"])]
        self._weights = zipf_weights(len(self.pool), params["theta"])
        self._requests = _rng(seed, "requests")

    def setup(self):
        self._build()
        # Serving the whole pool once fills the scan cache.
        for start in range(0, len(self.pool), REQUEST_QUERIES):
            self.engine.execute_batch(
                self._queries(self.pool[start:start + REQUEST_QUERIES]))

    def prepare(self, index):
        return self._queries(self._requests.choices(
            self.pool, weights=self._weights, k=REQUEST_QUERIES))


# ---------------------------------------------------------------------------
# writes beside reads
# ---------------------------------------------------------------------------

def standing_predicates():
    """WHERE trees of delta_mix's four standing queries."""
    return [Eq("key", 0) & Range("price", 0, 99),
            In("region", (1, 2, 3)),
            Eq("key", 5) | Eq("region", 7),
            Range("price", 100, 300) - Eq("key", 0)]


def _zipf_value(rng, weights):
    return rng.choices(range(len(weights)), weights=weights)[0]


class DeltaMix(Workload):
    """Delta batches alternating with WHERE-only reads.

    One operation is one write (``QueryEngine.apply_delta``) followed
    by one read request.  Reads leave out ORDER BY because the RID
    space grows past the packing budget.

    The writes come from ``generate_delta_stream``, which builds the
    whole stream up front (untimed): ``max_ops_per_s`` times the
    measured seconds, above the fastest rate seen, so the loop does not
    run out.
    """

    name = "delta_mix"

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        self.cardinalities = params["cardinalities"]
        # Deletes favour popular values of the first column, "key".
        self.operations = max(self.modeled_ops,
                              math.ceil(seconds * params["max_ops_per_s"]))
        self.initial, self.batches = generate_delta_stream(
            params["rows"], self.operations, self.cardinalities,
            params["inserts"], params["deletes"], params["theta"], seed)
        self.oracle = TableOracle(self.initial)
        self._weights = {name: zipf_weights(cardinality, params["theta"])
                         for name, cardinality
                         in self.cardinalities.items()}
        self._requests = _rng(seed, "reads")
        self.standing = []

    def setup(self):
        self.table = _indexed_table("events", self.initial)
        self.engine = QueryEngine()
        self.standing = [
            self.engine.register_standing(Query(self.table, predicate))
            for predicate in standing_predicates()]
        self.engine.execute_batch(self._read(_rng(0, "warmup")))

    def _read_predicate(self, rng):
        key = _zipf_value(rng, self._weights["key"])
        other = (key + 1 + _zipf_value(rng, self._weights["key"][1:])) \
            % self.cardinalities["key"]
        low = _zipf_value(rng, self._weights["price"])
        price = Range("price", low, low + rng.randrange(20, 200))
        shape = rng.random()
        if shape < 0.4:
            return Eq("key", key) & price
        if shape < 0.7:
            regions = rng.sample(range(self.cardinalities["region"]), 3)
            return In("region", tuple(sorted(regions))) & Eq("key", key)
        return (Eq("key", key) | Eq("key", other)) - price

    def _read(self, rng):
        return [Query(self.table, self._read_predicate(rng))
                for _ in range(REQUEST_QUERIES)]

    def prepare(self, index):
        return (DeltaBatch.from_spec(self.batches[index]),
                self._read(self._requests))

    def serve(self, request):
        batch, reads = request
        self.engine.apply_delta(self.table, batch)
        return self.engine.execute_batch(reads)

    def check(self, index, request, response):
        batch, reads = request
        self.oracle.apply(batch)
        self._count_results(response)
        for standing in self.standing:
            expected = self.oracle.where(standing.query.predicate)
            if standing.rids != expected.tolist():
                return False
        return len(response) == len(reads) and all(
            self.oracle.check(query, result)
            for query, result in zip(reads, response))

    def modeled_cycles(self, response):
        return sum(result.stats.cycles for result in response)

    def snapshot(self):
        return self.engine.metrics_snapshot()


# ---------------------------------------------------------------------------
# the shard tier
# ---------------------------------------------------------------------------

def conjunction(rng):
    """A deep index-ANDing WHERE tree over the orders columns."""
    status = Eq("status", rng.randrange(4))
    region = In("region", tuple(sorted(rng.sample(range(8),
                                                  rng.randint(2, 4)))))
    low = rng.randrange(0, 700)
    width = rng.randrange(150, 300)
    price = Range("price", low, low + width)
    narrow_width = rng.randrange(30, 80)
    narrow_low = low + rng.randrange(0, width - narrow_width)
    narrow = Range("price", narrow_low, narrow_low + narrow_width)
    shape = rng.random()
    if shape < 0.6:
        return ((status & region) & price) & narrow
    if shape < 0.85:
        return (region & price) & narrow
    return ((status & region) & price) - narrow


class ShardPooled(Workload):
    """Non-repeating conjunctions on 4 hash shards, 2 pool workers.

    Queries never repeat, so the cross-batch shard cache never hits and
    every request scatters to the pool.
    """

    name = "shard_pooled"
    probe = TwoCoreProbe

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        self.columns = _orders_columns(_rng(seed, "table"),
                                       params["rows"])
        self.oracle = TableOracle(self.columns)
        self._requests = _rng(seed, "requests")
        self._seen = set()
        self.served = []
        self.engine = None
        self._single = None
        self.counts.update(skew_sum=0.0)

    def _predicates(self, rng):
        predicates = []
        while len(predicates) < REQUEST_QUERIES:
            predicate = conjunction(rng)
            key = signature(predicate)
            if key not in self._seen:
                self._seen.add(key)
                predicates.append(predicate)
        return predicates

    def _queries(self, table, predicates):
        return [Query(table, predicate) for predicate in predicates]

    def setup(self):
        self.close()
        self.table = _indexed_table("orders", self.columns)
        self.engine = ShardedEngine(shards=self.params["shards"],
                                    partitioner="hash")
        # Partitions the table, calibrates and spawns the pool.
        self.serve(self._queries(
            self.table, self._predicates(_rng(0, "warmup"))))

    def prepare(self, index):
        predicates = self._predicates(self._requests)
        if len(self.served) < self.modeled_ops:
            self.served.append(predicates)
        return self._queries(self.table, predicates)

    def serve(self, request):
        return self.engine.execute_batch(request,
                                         workers=self.params["workers"])

    def check(self, index, request, response):
        self._count_results(response)
        loads = [0] * self.params["shards"]
        for result in response:
            for position, cycles in enumerate(result.shard_cycles):
                loads[position] += cycles
        self.counts["skew_sum"] += skew_ratio(loads)
        if len(response) != len(request) or not all(
                self.oracle.check(query, result)
                for query, result in zip(request, response)):
            return False
        if index >= self.modeled_ops:
            return True
        if self._single is None:
            self._single = QueryEngine()
        single = self._single.execute_batch(request)
        return all(got.rids == ref.rids
                   for got, ref in zip(response, single))

    def modeled_cycles(self, response):
        return sum(result.makespan_cycles for result in response)

    def snapshot(self):
        return self.engine.metrics_snapshot()

    def reference_metrics(self, probe):
        """The same request stream on one engine and on inline shards.

        These are the marks pooled serving has to beat.  Both run in
        this process, so they are probed on one core.
        """
        probe = HostProbe(probe.ref_ms)
        inline = ShardedEngine(shards=self.params["shards"],
                               partitioner="hash")
        inline.shards_for(self.table)
        return {
            "db.shard.ref.single_ops_per_s":
                self._rate(QueryEngine(), probe),
            "db.shard.ref.inline_ops_per_s": self._rate(inline, probe),
        }

    def _rate(self, engine, probe):
        before = probe.probe_ms()
        started = time.perf_counter()
        for predicates in self.served:
            engine.execute_batch(self._queries(self.table, predicates))
        elapsed = time.perf_counter() - started
        factor = probe.factor(before, probe.probe_ms())
        return len(self.served) / (elapsed * factor)

    def close(self):
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None
        _wait_for_children()


# ---------------------------------------------------------------------------
# the paper's kernels on the instruction-set simulator
# ---------------------------------------------------------------------------

class PaperIss(Workload):
    """Table 2 kernels on ``DBA_2LSU_EIS``: one round per operation.

    A round is intersection, union and difference of two sorted sets at
    50% selectivity plus a merge sort, on fresh inputs.  Single kernel
    runs would not do as operations: their latencies form clusters
    (~40 ms, ~57 ms, ~300 ms) with the median on a cluster boundary.
    Only ``repro.cpu`` and ``repro.core.kernels`` run; no ``db`` layer
    does.
    """

    name = "paper_iss"

    def __init__(self, seed, params, seconds=0.0):
        super().__init__(seed, params, seconds)
        self.processor = None
        self._model = None

    def setup(self):
        self.processor = build_processor("DBA_2LSU_EIS", partial_load=True)
        # Assemble, lint and compile every kernel once.
        for which in SET_OPERATIONS:
            kernels.run_set_operation(self.processor, which, [1, 2], [2, 3])
        kernels.run_merge_sort(self.processor, [3, 1, 2])

    def prepare(self, index):
        seed = self.seed * 1_000_003 + index
        set_a, set_b = generate_set_pair(self.params["set_size"],
                                         selectivity=0.5, seed=seed)
        return set_a, set_b, random_values(self.params["sort_size"],
                                           seed=seed)

    def serve(self, request):
        set_a, set_b, values = request
        runs = [kernels.run_set_operation(self.processor, which, set_a,
                                          set_b)
                for which in SET_OPERATIONS]
        return runs + [kernels.run_merge_sort(self.processor, values)]

    def check(self, index, request, response):
        set_a, set_b, values = request
        if self._model is None:
            # The cost model's predictions are the cycle oracle; it
            # calibrates on a processor of its own.
            self._model = (CostModel(enabled=True, verify=False),
                           build_processor("DBA_2LSU_EIS",
                                           partial_load=True))
        model, processor = self._model
        predicted = [model.set_operation(processor, which, set_a, set_b)
                     for which in SET_OPERATIONS]
        predicted.append(model.merge_sort(processor, values))
        for which, (got, _run) in zip(SET_OPERATIONS, response):
            if not check_set_operation(which, set_a, set_b, got):
                return False
        return check_sort(values, response[-1][0]) and all(
            source == "costmodel" and cycles == run.cycles
            for (_values, cycles, source), (_got, run)
            in zip(predicted, response))

    def modeled_cycles(self, response):
        return sum(run.cycles for _got, run in response)

    def snapshot(self):
        return self.processor.metrics.snapshot().as_dict()


WORKLOADS = {cls.name: cls for cls in (ServeCold, ServeHot, DeltaMix,
                                       ShardPooled, PaperIss)}

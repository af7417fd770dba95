"""Traced pass: spans around public calls into each layer.

The wrappers are installed where each caller looks the name up (a
class attribute, or the module global a caller imported), record
``[label, start, end, parent, request, child_s]`` in memory and are
removed when the pass ends.  A span's self time is its duration minus
the time its child spans cover.  Work the tracer does itself (observing
results) is charged to neither the span nor its parent.
"""

import functools
import pickle
import time
from collections import defaultdict

import repro.core.costmodel as costmodel_module
import repro.core.kernels as kernels_module
import repro.db.engine as engine_module
import repro.db.executor as executor_module
import repro.db.shard as shard_module
from repro.core.costmodel import CostModel, calibration_cache_size
from repro.cpu.processor import Processor
from repro.db import (ColumnarIndex, ColumnarTable, Eq, In, QueryEngine,
                      QueryExecutor, Range, ShardedEngine)
from repro.supervisor import SupervisorPool

from harness import percentile

#: Requests exported to the Chrome trace.
TRACE_REQUESTS = 50


class Tracer:
    """In-memory span recorder; spans record only while ``active``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        #: Operation index the spans belong to; -1 during set-up.
        self.request = -1
        self.active = False
        #: ``label.quantity`` -> total, filled by observers, for
        #: operations and for set-up.
        self.observed = defaultdict(float)
        self.setup_observed = defaultdict(float)
        self._installed = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, label, observe, before):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            state = before() if before is not None else None
            record = [label, 0.0, 0.0, parent, tracer.request, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[2] - record[1]
            if observe is not None:
                observe(tracer.observed if record[4] >= 0
                        else tracer.setup_observed,
                        args, result, state, record[2] - record[1])
                if parent >= 0:
                    spans[parent][5] += time.perf_counter() - record[2]
            return result

        return traced

    def install(self, owner, attr, label, observe=None, before=None):
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, label, observe, before))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- views ----------------------------------------------------------

    def aggregate(self):
        """Per label: calls, total and self seconds of request spans."""
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
        for label, start, end, _parent, request, child_s in self.spans:
            if request < 0:
                continue
            entry = table[label]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
        return dict(table)

    def durations(self, label):
        return [end - start for name, start, end, _p, request, _c
                in self.spans if name == label and request >= 0]

    def self_seconds(self):
        """Per request: the summed self time of its spans."""
        self_s = defaultdict(float)
        for _label, start, end, _parent, request, child_s in self.spans:
            if request >= 0:
                self_s[request] += end - start - child_s
        return dict(self_s)

    def chrome_trace(self):
        """Chrome trace events of the first ``TRACE_REQUESTS`` requests."""
        shown = [span for span in self.spans
                 if 0 <= span[4] < TRACE_REQUESTS]
        origin = min((span[1] for span in shown), default=0.0)
        return {"traceEvents": [
            {"name": label, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"request": request,
                      "parent": self.spans[parent][0]
                      if parent >= 0 else None}}
            for label, start, end, parent, request, _child in shown]}


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _count(name, measure):
    def observe(observed, args, result, _state, _duration):
        observed[name] += measure(args, result)
    return observe


def _operands(first):
    return lambda args, _result: len(args[first]) + len(args[first + 1])


def _observe_pool(observed, args, report, _state, _duration):
    tasks = args[1]
    observed["supervisor.pool_run.payload_bytes"] += sum(
        len(pickle.dumps(task.args)) for task in tasks)
    observed["supervisor.retries"] += \
        report.snapshot.get("supervisor.requeued", 0)
    observed["supervisor.timeouts"] += \
        report.snapshot.get("supervisor.timeout", 0)


def _observe_run(observed, args, result, _state, _duration):
    observed["cpu.processor.run.instructions"] += result.instructions
    observed["cpu.processor.run.fastpath"] += \
        args[0].metrics.get("cpu.run.fastpath").read()


def _observe_calibration(observed, _args, _result, size_before, duration):
    if calibration_cache_size() > size_before:
        observed["core.costmodel.calibration_s"] += duration


def _observe_table_delta(observed, _args, outcome, _state, duration):
    if outcome["compacted"]:
        observed["db.columnar.table.compactions"] += 1
        observed["db.columnar.table.compacting_s"] += duration


def install_all(tracer):
    """Wrap every public call the per-layer metrics are built from."""
    tracer.install(QueryEngine, "execute_batch", "db.engine.execute_batch")
    tracer.install(QueryEngine, "apply_delta", "db.engine.apply_delta")
    for module in (engine_module, shard_module):
        tracer.install(module, "lint_query_or_raise", "db.planlint.lint")
    for leaf in (Eq, In, Range):
        tracer.install(leaf, "scan", "db.predicates.scan",
                       _count("db.predicates.scan.rids",
                              lambda _args, result: len(result)))
    for method in ("scan_eq", "scan_range", "scan_in"):
        tracer.install(ColumnarIndex, method, "db.columnar.index.scan")
    tracer.install(ColumnarIndex, "apply_delta",
                   "db.columnar.index.apply_delta")
    tracer.install(ColumnarTable, "fetch", "db.columnar.table.fetch",
                   _count("db.columnar.table.fetch.rows",
                          lambda _args, result: len(result)))
    tracer.install(ColumnarTable, "apply_delta",
                   "db.columnar.table.apply_delta", _observe_table_delta)
    tracer.install(QueryExecutor, "set_operation",
                   "db.executor.set_operation",
                   _count("db.executor.set_operation.operand_elems",
                          _operands(2)))
    tracer.install(QueryExecutor, "order_by", "db.executor.order_by")
    for method in ("set_operation", "merge_sort"):
        tracer.install(CostModel, method, "core.costmodel." + method,
                       _observe_calibration, calibration_cache_size)
    tracer.install(costmodel_module, "eis_set_features",
                   "core.costmodel.eis_set_features",
                   _count("core.costmodel.eis_set_features.elems",
                          _operands(1)))
    tracer.install(ShardedEngine, "execute_batch", "db.shard.execute_batch")
    tracer.install(SupervisorPool, "run", "supervisor.pool_run",
                   _observe_pool)
    tracer.install(shard_module, "rid_checksum", "db.shard.rid_checksum")
    for module in (kernels_module, executor_module, costmodel_module):
        tracer.install(module, "run_set_operation",
                       "core.kernels.run_set_operation")
        tracer.install(module, "run_merge_sort",
                       "core.kernels.run_merge_sort")
    tracer.install(Processor, "run", "cpu.processor.run", _observe_run)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _Layers:
    """Builds layer metrics; every ratio keeps its base."""

    def __init__(self, tracer, record):
        self.spans = tracer.aggregate()
        self.observed = tracer.observed
        self.counts = record["counts"]
        self.counters = record["counters"]
        self.values = {}
        self.bases = {}

    def ratio(self, name, num, den, scale=1.0):
        self.values[name] = num * scale / den if den else 0.0
        self.bases[name] = {"num": num, "den": den}

    def span(self, label, key="total_s"):
        entry = self.spans.get(label)
        return (entry[key], entry["calls"]) if entry else (0.0, 0)

    def per_call_us(self, name, label, key="total_s"):
        seconds, calls = self.span(label, key)
        self.ratio(name, seconds, calls, 1e6)

    def counter(self, name):
        return self.counters.get(name, 0)


def layer_metrics(tracer, record):
    """``(values, bases)`` of every per-layer metric for one run."""
    layers = _Layers(tracer, record)
    queries = layers.counts["queries"]
    ratio = layers.ratio
    per_call_us = layers.per_call_us
    counter = layers.counter

    per_call_us("db.engine.request.self_us", "db.engine.execute_batch",
                "self_s")
    hits = counter("db.engine.scan_cache.hits")
    ratio("db.engine.scan_cache.hit_ratio", hits,
          hits + counter("db.engine.scan_cache.misses"))
    ratio("db.engine.cse.hits_per_query", counter("db.engine.cse.hits"),
          counter("db.engine.queries"))
    deltas = counter("db.engine.deltas")
    ratio("db.engine.scan_cache.invalidated_per_delta",
          counter("db.engine.scan_cache.invalidated"), deltas)
    per_call_us("db.engine.apply_delta.self_us", "db.engine.apply_delta",
                "self_s")
    writes = [seconds * 1000.0
              for seconds in tracer.durations("db.engine.apply_delta")]
    layers.values["db.engine.apply_delta.p50_ms"] = \
        percentile(writes, 50) if writes else 0.0
    layers.values["db.engine.apply_delta.p90_ms"] = \
        percentile(writes, 90) if writes else 0.0
    ratio("db.engine.apply_delta.rows_per_s",
          counter("db.engine.delta_rows"),
          layers.span("db.engine.apply_delta")[0])
    ratio("db.engine.standing.rows_scanned_per_delta",
          counter("db.engine.standing.rows_scanned"), deltas)

    per_call_us("db.planlint.lint.us_per_query", "db.planlint.lint")

    per_call_us("db.predicates.scan.us_per_call", "db.predicates.scan")
    scans = layers.span("db.predicates.scan")[1]
    ratio("db.predicates.scan.calls_per_query", scans, queries)
    ratio("db.predicates.scan.rids_per_result_row",
          layers.observed["db.predicates.scan.rids"],
          layers.counts["result_rows"])

    per_call_us("db.executor.set_operation.self_us_per_call",
                "db.executor.set_operation", "self_s")
    set_ops = layers.span("db.executor.set_operation")[1]
    ratio("db.executor.set_operation.calls_per_query", set_ops, queries)
    ratio("db.executor.set_operation.operand_elems_per_call",
          layers.observed["db.executor.set_operation.operand_elems"],
          set_ops)
    per_call_us("db.executor.order_by.self_us_per_call",
                "db.executor.order_by", "self_s")

    per_call_us("core.costmodel.set_operation.self_us_per_call",
                "core.costmodel.set_operation", "self_s")
    per_call_us("core.costmodel.eis_set_features.us_per_call",
                "core.costmodel.eis_set_features")
    ratio("core.costmodel.eis_set_features.ns_per_elem",
          layers.span("core.costmodel.eis_set_features")[0],
          layers.observed["core.costmodel.eis_set_features.elems"], 1e9)
    per_call_us("core.costmodel.merge_sort.us_per_call",
                "core.costmodel.merge_sort")
    model_hits = counter("costmodel.hits")
    ratio("core.costmodel.hit_ratio", model_hits,
          model_hits + counter("costmodel.fallbacks"))
    layers.values["core.costmodel.calibration_s"] = \
        tracer.setup_observed["core.costmodel.calibration_s"]

    per_call_us("db.columnar.fetch.us_per_call", "db.columnar.table.fetch")
    ratio("db.columnar.fetch.rows_per_call",
          layers.observed["db.columnar.table.fetch.rows"],
          layers.span("db.columnar.table.fetch")[1])
    per_call_us("db.columnar.table.apply_delta.self_us",
                "db.columnar.table.apply_delta", "self_s")
    per_call_us("db.columnar.index.apply_delta.us_per_call",
                "db.columnar.index.apply_delta")
    layers.values["db.columnar.compactions"] = \
        layers.observed["db.columnar.table.compactions"]
    ratio("db.columnar.compacting_write_ms",
          layers.observed["db.columnar.table.compacting_s"],
          layers.observed["db.columnar.table.compactions"], 1000.0)

    per_call_us("db.shard.request.self_us", "db.shard.execute_batch",
                "self_s")
    per_call_us("supervisor.pool_run.us_per_batch", "supervisor.pool_run")
    ratio("supervisor.pool_run.payload_bytes_per_batch",
          layers.observed["supervisor.pool_run.payload_bytes"],
          layers.span("supervisor.pool_run")[1])
    per_call_us("db.shard.rid_checksum.us_per_call",
                "db.shard.rid_checksum")
    shard_queries = counter("db.shard.queries")
    ratio("db.shard.skipped_per_query", counter("db.shard.skipped"),
          shard_queries)
    ratio("db.shard.skew", layers.counts.get("skew_sum", 0.0),
          layers.counts["requests"] if shard_queries else 0)
    for name, source in (("merge_cycles", "merge_cycles"),
                         ("transfer_cycles", "transfer_cycles"),
                         ("bytes", "bytes_moved")):
        ratio("db.shard.gather.%s_per_query" % name,
              counter("db.shard.gather." + source), shard_queries)
    for name in ("supervisor.retries", "supervisor.timeouts"):
        layers.values[name] = layers.observed[name]
    layers.values["supervisor.worker_peak_rss_mb"] = \
        record["info"]["worker_peak_rss_mb"]
    for name in ("db.shard.ref.single_ops_per_s",
                 "db.shard.ref.inline_ops_per_s"):
        layers.values[name] = record["references"].get(name, 0.0)

    per_call_us("core.kernels.run_set_operation.us_per_call",
                "core.kernels.run_set_operation")
    per_call_us("core.kernels.run_merge_sort.us_per_call",
                "core.kernels.run_merge_sort")
    runs = layers.span("cpu.processor.run")
    instructions = layers.observed["cpu.processor.run.instructions"]
    ratio("cpu.processor.run.instr_per_call", instructions, runs[1])
    ratio("cpu.processor.run.instr_per_s", instructions, runs[0])
    ratio("cpu.fastpath_ratio",
          layers.observed["cpu.processor.run.fastpath"], runs[1])
    return layers.values, layers.bases

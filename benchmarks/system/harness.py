"""One measured run of one workload.

The load generator is a single closed-loop client: it sends the next
request only after the previous one returned.  Host speed on a shared
VM drifts by ~10% within a few hundred milliseconds, so the host probe
(``hostprobe.py``) runs right before and right after every timed call,
and that call's wall time is scaled by ``ref_ms / probe_ms`` of the two.
"""

import gc
import math
import resource
import statistics
import sys
import time
import traceback

from repro.core.costmodel import clear_calibration_cache
from repro.core.kernels import clear_portable_cache


def percentile(values, q):
    """Nearest-rank percentile; failed requests rank as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _reset_process_caches():
    """Drop the module-level caches a fresh process would not have:
    cost-model calibrations and assembled kernels."""
    clear_calibration_cache()
    clear_portable_cache()


def _peak_rss_mb(who):
    """Peak RSS of this process, or of the largest waited-for child
    (pool workers, whose heap swings by 150 MB from batch to batch)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: A probe this recent (seconds) still describes the host; the probe
#: after one call then also serves as the probe before the next.
PROBE_REUSE_S = 0.02


class _ProbedTimer:
    """Times calls between host probes, reusing a fresh last probe."""

    def __init__(self, probe):
        self.probe = probe
        self._last = None  # (probe ms, perf_counter when taken)

    def __call__(self, call, *args):
        """``(result, error, raw seconds, host factor)`` of one call."""
        last = self._last
        if last is None or time.perf_counter() - last[1] > PROBE_REUSE_S:
            before = self.probe.probe_ms()
        else:
            before = last[0]
        started = time.perf_counter()
        try:
            result = call(*args)
            error = None
        except Exception:  # a failed call is counted, never fatal
            result = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - started
        after = self.probe.probe_ms()
        self._last = (after, time.perf_counter())
        return result, error, elapsed, self.probe.factor(before, after)


def _checked(workload, index, request, response):
    """The oracle's verdict on one response, or why it failed."""
    try:
        if workload.check(index, request, response):
            return None
    except Exception:  # a malformed response fails the check
        return traceback.format_exc()
    return "output differs from the oracle"


def _set_up(workload, timer, tracer=None):
    """Cold set-up: ``(raw seconds, host factor)``."""
    workload.close()
    _reset_process_caches()
    gc.collect()
    if tracer is not None:
        tracer.active = True
    _none, error, elapsed, factor = timer(workload.setup)
    if tracer is not None:
        tracer.active = False
    if error is not None:
        raise RuntimeError("set-up failed:\n" + error)
    return elapsed, factor


def _report_failure(index, error):
    print("operation %d failed: %s" % (index, error), file=sys.stderr)


def _modeled_pass(workload):
    """``(mean modeled cycles, failed operations)`` over the first
    ``modeled_ops`` operations of *workload*, served untimed.

    *workload* is built from a fixed seed, so the mean depends on the
    code alone: it is exact, whatever the run's seed or speed.
    """
    total = 0
    failed = 0
    try:
        try:
            workload.setup()
        except Exception:  # no operation can be served
            _report_failure(0, traceback.format_exc())
            return math.inf, workload.modeled_ops
        for index in range(workload.modeled_ops):
            request = workload.prepare(index)
            try:
                response = workload.serve(request)
            except Exception:  # a failed call is counted, never fatal
                error = traceback.format_exc()
            else:
                error = _checked(workload, index, request, response)
            if error is None:
                total += workload.modeled_cycles(response)
            else:
                failed += 1
                _report_failure(index, error)
    finally:
        workload.close()
    return (total / workload.modeled_ops if not failed else math.inf,
            failed)


def run(workload, modeled, seconds, probe, setup_reps, tracer=None):
    """Set up *workload*, serve it for *seconds* of request time, then
    set it up ``setup_reps - 1`` more times; the modeled metric comes
    from *modeled*, the same workload on fixed inputs.  Returns the run
    record.

    The repeated set-ups run after the loop rather than back to back,
    so the median of all of them spans more than one host episode.
    """
    timer = _ProbedTimer(probe)
    setups = [_set_up(workload, timer, tracer)]
    gc.collect()

    start_counters = workload.snapshot()
    latencies = []  # normalised seconds, +inf for failures
    raw_latencies = []
    factors = []
    failed = 0
    index = 0
    measured = 0.0
    while ((measured < seconds or index < workload.modeled_ops)
           and index < workload.operations):
        request = workload.prepare(index)
        if tracer is not None:
            tracer.request = index
            tracer.active = True
        response, error, elapsed, factor = timer(workload.serve, request)
        if tracer is not None:
            tracer.active = False
        if error is None:
            error = _checked(workload, index, request, response)
        if error is None:
            latencies.append(elapsed * factor)
            raw_latencies.append(elapsed)
        else:
            failed += 1
            _report_failure(index, error)
            latencies.append(math.inf)
            raw_latencies.append(math.inf)
        factors.append(factor)
        measured += elapsed
        index += 1
    end_counters = workload.snapshot()

    references = {}
    if tracer is not None:
        references = workload.reference_metrics(probe)
    setups += [_set_up(workload, timer) for _ in range(setup_reps - 1)]
    workload.close()
    setup_s = [elapsed * factor for elapsed, factor in setups]
    raw_setup_s = [elapsed for elapsed, _factor in setups]

    served = index - failed
    normalised_s = sum(latency for latency in latencies
                       if latency != math.inf)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": served / normalised_s if normalised_s else 0.0,
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 90) * 1000.0,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    info = {
        "raw.setup_s": statistics.median(raw_setup_s),
        "raw.ops_per_s": served / measured if measured else 0.0,
        "raw.latency_p50_ms": percentile(raw_latencies, 50) * 1000.0,
        "raw.latency_p90_ms": percentile(raw_latencies, 90) * 1000.0,
        "raw.host_probe_ms": probe.ref_ms / statistics.median(factors),
        "host_ref_ms": probe.ref_ms,
        "worker_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "measured_s": measured,
    }
    # After the peaks are read: the modeled pass builds its own system.
    metrics["modeled_cycles_per_op"], modeled_failed = _modeled_pass(modeled)
    return {
        "workload": workload.name,
        "attempted": index + modeled.modeled_ops,
        "failed": failed + modeled_failed,
        "metrics": metrics,
        "info": info,
        "counts": dict(workload.counts),
        "counters": _counter_diff(start_counters, end_counters),
        "references": references,
        "request_walls": raw_latencies,
    }


def _counter_diff(start, end):
    return {name: value - start.get(name, 0)
            for name, value in end.items()
            if isinstance(value, (int, float))}

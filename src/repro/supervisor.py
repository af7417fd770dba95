"""Crash-isolated work supervisor for experiment fan-out.

Long simulation sweeps die in practice for reasons that have nothing
to do with the experiment that was running: a worker process is
OOM-killed, a single experiment wedges, a transient failure hits one
task out of twenty.  The plain ``ProcessPoolExecutor`` pattern loses
*every* result in all of these cases.  This supervisor keeps the pool
but adds the guardrails the sweeps need:

- **Crash isolation.**  Worker exceptions are caught *inside* the
  worker and come back as data; one failing task never aborts its
  siblings, whose results are kept.
- **Timeouts.**  A per-task budget enforced cooperatively in the
  worker via ``SIGALRM`` (the simulator is pure Python, so the signal
  always gets through); a wedged task returns a ``timeout`` outcome
  instead of wedging the sweep.
- **Retry with backoff.**  Failed/timed-out tasks are retried up to a
  budget, with exponential backoff between attempts.
- **Pool-breakage recovery.**  If a worker dies hard (segfault,
  ``SIGKILL``), ``BrokenProcessPool`` poisons every in-flight future.
  The supervisor respawns the pool and requeues the affected tasks,
  counting a strike against each — an innocent sibling gets re-run,
  while the poison task exhausts its strike budget and is reported
  ``failed`` instead of breaking the pool forever.  A worker that died
  while the pool sat idle surfaces at the next submit instead; the
  pool is respawned the same way and the task resubmitted without a
  strike, since none of it ran.

Outcomes are returned in input order with per-task status
(``ok`` / ``retried`` / ``failed`` / ``timeout``) and a
``supervisor.*`` metrics snapshot (docs/OBSERVABILITY.md).

Task callables (and their arguments) must be picklable — plain
module-level functions, as usual for process pools.
"""

import collections
import concurrent.futures
import signal
import time
import traceback
import warnings
from concurrent.futures.process import BrokenProcessPool

from .telemetry.registry import MetricsRegistry

#: Statuses a task can end in.  ``retried`` means it ultimately
#: succeeded but needed more than one attempt.
STATUSES = ("ok", "retried", "failed", "timeout")


def _alarm_supported():
    """Can this platform arm cooperative per-task timeouts?"""
    return hasattr(signal, "SIGALRM")


_TIMEOUT_WARNED = False


def _warn_timeout_unsupported():
    """One-time warning: a timeout was requested but cannot be armed."""
    global _TIMEOUT_WARNED
    if _TIMEOUT_WARNED:
        return
    _TIMEOUT_WARNED = True
    warnings.warn(
        "per-task timeouts need signal.SIGALRM, which this platform "
        "lacks; tasks run without a timeout (reported as "
        "timeout_unsupported in the supervise counts)",
        RuntimeWarning, stacklevel=4)


class Task:
    """One unit of work: ``fn(*args, **kwargs)`` in a worker process."""

    __slots__ = ("key", "fn", "args", "kwargs")

    def __init__(self, key, fn, args=(), kwargs=None):
        self.key = key
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})

    def __repr__(self):
        return "<Task %r>" % (self.key,)


class TaskOutcome:
    """Terminal state of one task after supervision."""

    __slots__ = ("key", "status", "value", "error", "attempts", "elapsed")

    def __init__(self, key):
        self.key = key
        self.status = None
        self.value = None
        #: Short error text for failed/timeout outcomes (the last
        #: attempt's), with the worker traceback appended.
        self.error = None
        self.attempts = 0
        self.elapsed = 0.0

    @property
    def ok(self):
        return self.status in ("ok", "retried")

    def __repr__(self):
        return "<TaskOutcome %r %s>" % (self.key, self.status)


class SuperviseReport:
    """Everything one :func:`supervise` call produced."""

    def __init__(self, outcomes, snapshot, timeout_unsupported=0):
        #: :class:`TaskOutcome` list in task-input order.
        self.outcomes = outcomes
        #: ``supervisor.*`` metrics snapshot of this run.
        self.snapshot = snapshot
        #: Tasks that requested a timeout on a platform without
        #: ``SIGALRM`` — they ran unguarded instead of silently
        #: pretending a budget was enforced.
        self.timeout_unsupported = timeout_unsupported

    @property
    def ok(self):
        return all(outcome.ok for outcome in self.outcomes)

    def counts(self):
        tally = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            tally[outcome.status] += 1
        tally["timeout_unsupported"] = self.timeout_unsupported
        return tally

    def status_table(self):
        """Per-task status lines for terminal reporting."""
        lines = []
        for outcome in self.outcomes:
            note = ""
            if outcome.attempts > 1:
                note = " (%d attempts)" % outcome.attempts
            if outcome.error and not outcome.ok:
                first = outcome.error.strip().splitlines()[0]
                note += " — %s" % first
            lines.append("%-24s %-8s%s"
                         % (outcome.key, outcome.status, note))
        return lines


class _WorkerTimeout(Exception):
    """Raised inside a worker by the SIGALRM handler."""


def _on_alarm(signum, frame):
    raise _WorkerTimeout()


def _guarded_call(fn, args, kwargs, timeout):
    """Worker entry point: run *fn* and report the outcome as data.

    Never lets an exception cross the process boundary (only a hard
    worker death does, which the supervisor handles as pool breakage).
    """
    started = time.monotonic()
    armed = bool(timeout) and hasattr(signal, "SIGALRM")
    if armed:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        value = fn(*args, **kwargs)
        return ("ok", value, time.monotonic() - started)
    except _WorkerTimeout:
        return ("timeout", "timed out after %.1fs" % timeout,
                time.monotonic() - started)
    except Exception as exc:
        detail = "%s: %s\n%s" % (type(exc).__name__, exc,
                                 traceback.format_exc())
        return ("error", detail, time.monotonic() - started)
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class _Record:
    __slots__ = ("task", "outcome")

    def __init__(self, task):
        self.task = task
        self.outcome = TaskOutcome(task.key)


class SupervisorPool:
    """A reusable supervised worker pool.

    :func:`supervise` spins a fresh ``ProcessPoolExecutor`` up and down
    per call, which is the right shape for one-shot experiment sweeps
    but wasteful for callers that dispatch work every batch (the
    sharded query engine scatters shard tasks per serving batch).  A
    ``SupervisorPool`` keeps the worker processes alive across
    :meth:`run` calls — same guardrails, same per-call
    :class:`SuperviseReport`, amortized pool spawn cost.

    The pool is respawned transparently when a worker dies hard
    (``BrokenProcessPool``); :meth:`shutdown` (or use as a context
    manager) releases the workers.
    """

    def __init__(self, jobs=2):
        self.jobs = max(1, jobs)
        self._pool = None

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs)
        return self._pool

    def _respawn_pool(self):
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs)
        return self._pool

    def shutdown(self):
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    def __repr__(self):
        state = "idle" if self._pool is None else "live"
        return "<SupervisorPool jobs=%d %s>" % (self.jobs, state)

    # -- supervised execution ------------------------------------------------

    def run(self, tasks, timeout=None, retries=1, backoff=0.5,
            log=None):
        """Run *tasks* across the pool with guardrails.

        Parameters
        ----------
        timeout: per-attempt budget in seconds (``None`` = unlimited).
        retries: extra attempts granted after a failed/timed-out/killed
            attempt (0 = fail fast).
        backoff: base delay before a retry; doubles per prior attempt.
        log: optional callable for progress lines.

        Returns a :class:`SuperviseReport`; never raises for task-level
        failures.
        """
        registry = MetricsRegistry()
        scope = registry.scope("supervisor")
        counters = {name: scope.counter(name)
                    for name in ("submitted", "ok", "retried", "failed",
                                 "timeout", "requeued", "pool_breaks",
                                 "timeout_unsupported")}

        records = [_Record(task) for task in tasks]
        timeout_unsupported = 0
        if timeout and not _alarm_supported():
            # Silently disarming would report tasks as guarded when
            # they are not; warn once and surface it in the counts.
            _warn_timeout_unsupported()
            timeout_unsupported = len(records)
            counters["timeout_unsupported"].value += len(records)
            timeout = None
        ready = collections.deque(records)
        delayed = []  # (due, record), kept sorted by due time
        in_flight = {}
        jobs = self.jobs
        pool = self._ensure_pool()

        def say(message):
            if log is not None:
                log(message)

        def settle(record, status, error=None):
            record.outcome.status = status
            record.outcome.error = error
            counters[status].value += 1

        def strike(record, error):
            """One failed attempt: requeue within budget, else settle."""
            outcome = record.outcome
            if outcome.attempts <= retries:
                delay = backoff * (2 ** (outcome.attempts - 1))
                delayed.append((time.monotonic() + delay, record))
                delayed.sort(key=lambda item: item[0])
                counters["requeued"].value += 1
                say("retrying %r after %.2fs (attempt %d of %d)"
                    % (record.task.key, delay, outcome.attempts + 1,
                       retries + 1))
            else:
                status = "timeout" \
                    if error and error.startswith("timed out") \
                    else "failed"
                settle(record, status, error)
                say("giving up on %r: %s"
                    % (record.task.key, error.strip().splitlines()[0]))

        def harvest(done):
            """Settle finished futures; True if one saw the pool break."""
            broken = False
            for future in done:
                record = in_flight.pop(future)
                try:
                    kind, payload, elapsed = future.result()
                except BrokenProcessPool:
                    broken = True
                    strike(record, "worker process died")
                    continue
                record.outcome.elapsed += elapsed
                if kind == "ok":
                    record.outcome.value = payload
                    settle(record,
                           "ok" if record.outcome.attempts == 1
                           else "retried")
                else:
                    strike(record, payload)
            return broken

        def respawn(when):
            # Futures still in flight are poisoned too: strike and
            # requeue them, then respawn the pool.
            counters["pool_breaks"].value += 1
            say("worker pool broke %s; respawning" % when)
            for record in in_flight.values():
                strike(record, "worker pool broke")
            in_flight.clear()
            return self._respawn_pool()

        while ready or delayed or in_flight:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                ready.append(delayed.pop(0)[1])
            while ready and len(in_flight) < 2 * jobs:
                record = ready[0]
                try:
                    future = pool.submit(_guarded_call, record.task.fn,
                                         record.task.args,
                                         record.task.kwargs, timeout)
                except BrokenProcessPool:
                    # A worker died since the last submit, possibly
                    # while the pool sat idle between runs.  Nothing of
                    # this task ran, so it is resubmitted to the
                    # respawned pool without being charged an attempt.
                    harvest([future for future in in_flight
                             if future.done()])
                    pool = respawn("before submit")
                    continue
                ready.popleft()
                record.outcome.attempts += 1
                counters["submitted"].value += 1
                in_flight[future] = record
            if not in_flight:
                # Nothing running; sleep until the next retry is due.
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wait_timeout = None
            if delayed:
                wait_timeout = max(0.0,
                                   delayed[0][0] - time.monotonic())
            done, _ = concurrent.futures.wait(
                in_flight, timeout=wait_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED)
            if harvest(done):
                pool = respawn("mid-run")

        return SuperviseReport(
            [record.outcome for record in records],
            registry.snapshot(),
            timeout_unsupported=timeout_unsupported)


def supervise(tasks, jobs=2, timeout=None, retries=1, backoff=0.5,
              log=None):
    """Run *tasks* across *jobs* worker processes with guardrails.

    One-shot form of :class:`SupervisorPool`: the pool is spawned for
    this call and shut down afterwards.  See :meth:`SupervisorPool.run`
    for the parameters and the :class:`SuperviseReport` contract.
    """
    with SupervisorPool(jobs) as pool:
        return pool.run(tasks, timeout=timeout, retries=retries,
                        backoff=backoff, log=log)

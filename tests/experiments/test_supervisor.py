"""Crash-isolated supervisor and the parallel experiment sweep.

Satellite regression: one failing experiment must not cost the
completed results of its siblings (the old ``run_parallel`` lost every
result when any future raised).
"""

import os
import signal
import time
import warnings

import pytest

import repro.supervisor
from repro.supervisor import (STATUSES, SupervisorPool, Task, supervise)


# -- picklable worker functions (process-pool requirement) -------------------

def _double(x):
    return x * 2


def _boom():
    raise RuntimeError("kaboom")


def _sleep_forever():
    time.sleep(600)


def _die_hard():
    os._exit(17)


def _pid():
    return os.getpid()


def _flaky(path):
    """Fails on the first attempt, succeeds afterwards."""
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient")
    return "recovered"


class TestSupervise:
    def test_all_ok(self):
        report = supervise([Task("a", _double, (2,)),
                            Task("b", _double, (3,))], jobs=2)
        assert report.ok
        assert [o.value for o in report.outcomes] == [4, 6]
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert report.snapshot.as_dict()["supervisor.ok"] == 2

    def test_sibling_results_survive_a_failure(self):
        report = supervise(
            [Task("good", _double, (5,)), Task("bad", _boom),
             Task("also-good", _double, (6,))],
            jobs=2, retries=0)
        assert not report.ok
        by_key = {o.key: o for o in report.outcomes}
        assert by_key["good"].value == 10
        assert by_key["also-good"].value == 12
        assert by_key["bad"].status == "failed"
        assert "kaboom" in by_key["bad"].error

    def test_outcomes_keep_input_order(self):
        tasks = [Task(str(i), _double, (i,)) for i in range(7)]
        report = supervise(tasks, jobs=3)
        assert [o.key for o in report.outcomes] \
            == [str(i) for i in range(7)]

    def test_timeout_status(self):
        report = supervise([Task("hang", _sleep_forever),
                            Task("fine", _double, (1,))],
                           jobs=2, timeout=0.5, retries=0)
        by_key = {o.key: o for o in report.outcomes}
        assert by_key["hang"].status == "timeout"
        assert "timed out" in by_key["hang"].error
        assert by_key["fine"].status == "ok"

    def test_retry_recovers_flaky_task(self, tmp_path):
        marker = str(tmp_path / "attempted")
        report = supervise([Task("flaky", _flaky, (marker,))],
                           jobs=1, retries=1, backoff=0.05)
        outcome = report.outcomes[0]
        assert outcome.status == "retried"
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2
        assert report.snapshot.as_dict()["supervisor.requeued"] == 1

    def test_retries_exhaust_to_failed(self):
        report = supervise([Task("bad", _boom)], jobs=1, retries=2,
                           backoff=0.01)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3

    def test_broken_pool_is_respawned(self):
        """A hard worker death neither wedges nor poisons siblings."""
        report = supervise([Task("die", _die_hard),
                            Task("live", _double, (7,))],
                           jobs=2, retries=1, backoff=0.05)
        by_key = {o.key: o for o in report.outcomes}
        assert by_key["live"].status in ("ok", "retried")
        assert by_key["live"].value == 14
        assert by_key["die"].status == "failed"
        assert report.snapshot.as_dict()["supervisor.pool_breaks"] >= 1

    def test_status_table_and_counts(self):
        report = supervise([Task("good", _double, (1,)),
                            Task("bad", _boom)], jobs=2, retries=0)
        counts = report.counts()
        assert counts["ok"] == 1 and counts["failed"] == 1
        assert set(counts) == set(STATUSES) | {"timeout_unsupported"}
        assert counts["timeout_unsupported"] == 0
        table = "\n".join(report.status_table())
        assert "good" in table and "ok" in table
        assert "bad" in table and "failed" in table


class TestSupervisorPoolEdges:
    """ISSUE 9 satellite: the pool's edge-case contracts."""

    def test_retries_zero_fails_fast(self):
        with SupervisorPool(jobs=1) as pool:
            report = pool.run([Task("bad", _boom)], retries=0)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert report.snapshot.as_dict()["supervisor.requeued"] == 0

    def test_backoff_zero_retries_immediately(self, tmp_path):
        marker = str(tmp_path / "attempted")
        with SupervisorPool(jobs=1) as pool:
            report = pool.run([Task("flaky", _flaky, (marker,))],
                              retries=1, backoff=0)
        outcome = report.outcomes[0]
        assert outcome.status == "retried"
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM")
    def test_task_that_times_out_on_every_attempt(self):
        with SupervisorPool(jobs=1) as pool:
            report = pool.run([Task("hang", _sleep_forever)],
                              timeout=0.3, retries=1, backoff=0.01)
        outcome = report.outcomes[0]
        assert outcome.status == "timeout"
        assert outcome.attempts == 2
        assert report.counts()["timeout"] == 1

    def test_pool_breakage_mid_batch_keeps_siblings_and_pool(self):
        """A hard worker death mid-batch: siblings' results survive
        and the same pool serves the next batch."""
        with SupervisorPool(jobs=2) as pool:
            first = pool.run([Task("die", _die_hard),
                              Task("live", _double, (8,))],
                             retries=1, backoff=0.05)
            by_key = {o.key: o for o in first.outcomes}
            assert by_key["live"].value == 16
            assert by_key["live"].status in ("ok", "retried")
            assert by_key["die"].status == "failed"
            assert first.snapshot.as_dict()[
                "supervisor.pool_breaks"] >= 1
            # The respawned pool is reusable for the next batch.
            second = pool.run([Task("a", _double, (2,)),
                               Task("b", _double, (3,))])
            assert second.ok
            assert [o.value for o in second.outcomes] == [4, 6]

    def test_worker_killed_while_idle_respawns_at_submit(self):
        """A worker SIGKILLed between two runs breaks the idle pool;
        the next run respawns it and charges no task an attempt."""
        with SupervisorPool(jobs=1) as pool:
            worker = pool.run([Task("pid", _pid)]).outcomes[0].value
            executor = pool._pool
            os.kill(worker, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken, "the executor never saw the death"
            report = pool.run([Task("a", _double, (2,)),
                               Task("b", _double, (3,))])
        assert [o.value for o in report.outcomes] == [4, 6]
        assert [o.status for o in report.outcomes] == ["ok", "ok"]
        assert [o.attempts for o in report.outcomes] == [1, 1]
        snapshot = report.snapshot.as_dict()
        assert snapshot["supervisor.pool_breaks"] == 1
        assert snapshot["supervisor.requeued"] == 0

    def test_timeout_unsupported_warns_once_and_is_counted(
            self, monkeypatch):
        monkeypatch.setattr(repro.supervisor, "_alarm_supported",
                            lambda: False)
        monkeypatch.setattr(repro.supervisor, "_TIMEOUT_WARNED", False)
        with pytest.warns(RuntimeWarning, match="SIGALRM"):
            report = supervise([Task("a", _double, (2,)),
                                Task("b", _double, (3,))],
                               jobs=2, timeout=5, retries=0)
        assert report.ok  # tasks ran, just unguarded
        counts = report.counts()
        assert counts["timeout_unsupported"] == 2
        assert report.timeout_unsupported == 2
        assert report.snapshot.as_dict()[
            "supervisor.timeout_unsupported"] == 2
        # The warning is one-time per process.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            supervise([Task("c", _double, (4,))], jobs=1, timeout=5,
                      retries=0)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_no_timeout_requested_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = supervise([Task("a", _double, (1,))], jobs=1)
        assert report.ok
        assert report.timeout_unsupported == 0
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


class TestRunParallel:
    def test_quick_sweep_returns_results(self):
        from repro.experiments.parallel import run_parallel
        outcome = run_parallel(["table4", "table2"], quick=True, jobs=2)
        assert outcome.ok
        assert len(outcome.results) == 2
        assert all(result is not None for result in outcome.results)

    def test_sweep_merges_worker_metrics(self):
        from repro.experiments.parallel import run_parallel
        outcome = run_parallel(["table4", "table2"], quick=True, jobs=2)
        metrics = outcome.metrics
        assert metrics["supervisor.submitted"] == 2
        assert metrics["supervisor.ok"] == 2
        # each worker's kernel-cache counters survive the process
        # boundary, namespaced and aggregated
        assert "worker.table2.kernels.cache.misses" in metrics
        assert "worker.table4.kernels.cache.misses" in metrics
        assert metrics["kernels.cache.misses"] == (
            metrics["worker.table2.kernels.cache.misses"]
            + metrics["worker.table4.kernels.cache.misses"])

    def test_failed_worker_contributes_no_metrics(self, monkeypatch):
        from repro.experiments.parallel import run_parallel
        monkeypatch.setenv("REPRO_FAIL_EXPERIMENT", "table4")
        outcome = run_parallel(["table2", "table4"], quick=True, jobs=2,
                               retries=0)
        assert "worker.table2.kernels.cache.misses" in outcome.metrics
        assert not any(name.startswith("worker.table4.")
                       for name in outcome.metrics)

    def test_injected_failure_keeps_sibling_results(self, monkeypatch):
        """The acceptance scenario: --parallel 2 with one raising
        experiment leaves the others' results intact."""
        from repro.experiments.parallel import run_parallel
        monkeypatch.setenv("REPRO_FAIL_EXPERIMENT", "table4")
        outcome = run_parallel(["table2", "table4"], quick=True, jobs=2,
                               retries=0)
        assert not outcome.ok
        assert outcome.results[0] is not None  # table2 survived
        assert outcome.results[1] is None
        by_key = {o.key: o for o in outcome.report.outcomes}
        assert by_key["table4"].status == "failed"
        assert "injected failure" in by_key["table4"].error

    def test_cli_exits_nonzero_with_status_table(self, monkeypatch,
                                                 capsys):
        from repro.experiments.__main__ import main
        monkeypatch.setenv("REPRO_FAIL_EXPERIMENT", "table4")
        status = main(["table2", "table4", "--quick", "--parallel", "2",
                       "--retries", "0"])
        out = capsys.readouterr().out
        assert status == 1
        assert "experiment status:" in out
        assert "table4" in out and "failed" in out
        assert "Table 2" in out  # the surviving sibling still printed

    def test_timeout_option_flows_through(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main
        monkeypatch.setenv("REPRO_HANG_EXPERIMENT", "table4")
        status = main(["table2", "table4", "--quick", "--parallel", "2",
                       "--timeout", "5", "--retries", "0"])
        out = capsys.readouterr().out
        assert status == 1
        assert "timeout" in out

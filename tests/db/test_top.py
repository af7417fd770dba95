"""Tests for the ``repro db top`` dashboard renderer and driver."""

from repro.db.top import render_dashboard, run_top


class TestRenderDashboard:
    def snapshot(self):
        return {
            "db.engine.queries": 64,
            "db.engine.batches": 2,
            "db.engine.last_batch_qps": 123.4,
            "db.engine.queue_depth": 0,
            "db.engine.workers": 2,
            "db.engine.active_workers": 2,
            "db.engine.scan_cache.hits": 6,
            "db.engine.scan_cache.misses": 18,
            "db.engine.result_cache.hits": 9,
            "db.engine.result_cache.misses": 3,
            "db.engine.result_cache.evictions": 2,
            "db.engine.cse.hits": 3,
            "db.engine.cycles_saved": 500,
            "db.engine.cycles_iss": 0,
            "db.engine.cycles_costmodel": 9000,
            "db.engine.query_cycles": {"p50": 120, "p95": 500,
                                       "p99": 600},
            "db.engine.worker.0.queries": 32,
            "db.engine.worker.0.scan_cache.hits": 4,
            "db.engine.worker.0.cse.hits": 1,
            "db.engine.worker.1.queries": 32,
            "db.engine.worker.1.scan_cache.hits": 2,
            "db.engine.worker.1.cse.hits": 2,
        }

    def test_renders_key_rows(self):
        text = render_dashboard(self.snapshot(), frame=3, elapsed=1.5)
        assert "frame 3" in text
        assert "queries served" in text and "64" in text
        assert "workers 2/2 (100%)" in text
        assert "25.0%" in text  # 6 hits / 24 lookups
        scan = text.index("scan cache")
        result = text.index("result cache")
        assert scan < result
        assert "75.0%    (9 hits, 3 misses, 2 evicted)" in text[result:]
        assert "p50 120" in text and "p99 600" in text

    def test_per_worker_rows_sorted(self):
        text = render_dashboard(self.snapshot())
        first = text.index("worker 0")
        second = text.index("worker 1")
        assert first < second

    def test_no_worker_rows_without_worker_metrics(self):
        snapshot = {name: value for name, value
                    in self.snapshot().items()
                    if not name.startswith("db.engine.worker.")}
        assert "worker 0" not in render_dashboard(snapshot)


class TestRunTop:
    def test_bounded_frames_return_final_snapshot(self, tmp_path):
        frames = []
        snapshot = run_top(rows=100, queries=4, frames=2, interval=0,
                           seed=7, clear=False,
                           metrics_out=str(tmp_path / "m.jsonl"),
                           out=frames.append)
        assert len(frames) == 2
        assert snapshot["db.engine.batches"] == 2
        assert snapshot["db.engine.queries"] == 8

    def test_sleep_injected_between_frames(self):
        naps = []
        run_top(rows=80, queries=2, frames=2, interval=0.5,
                clear=False, out=lambda text: None, sleep=naps.append)
        assert naps == [0.5]

"""Host-speed probe used to normalise wall-clock measurements.

On a shared VM the guest cannot see host contention: steal time reads
0 and CPU time equals wall time, yet the same pure-Python work takes up
to 1.6x longer from one moment to the next.  The probe times a fixed
~3 ms mix of the operations the system spends its time in (interpreter
loop, dict churn, ``sorted`` and ``np.sort``); the harness scales each
wall time by ``ref_ms / probe_ms`` of the probes taken around it.
Work spread over both cores is probed on both (:class:`TwoCoreProbe`).
"""

import threading
import time

import numpy as np


class HostProbe:
    """Times the fixed probe mix; ``ref_ms`` is its nominal duration."""

    def __init__(self, ref_ms):
        self.ref_ms = ref_ms
        rng = np.random.default_rng(0x5EED)
        self._array = rng.integers(0, 1 << 31, 40000)
        self._values = [int(value) for value in self._array[:4000]]

    def _mix(self):
        total = 0
        for i in range(12000):
            total += i * i % 7
        table = {}
        for i in range(3000):
            table[i * 7919 % 3001] = i
        for i in range(0, 3000, 2):
            table.pop(i * 7919 % 3001, None)
        sorted(self._values)
        np.sort(self._array)
        return total + len(table)

    def probe_ms(self):
        """Duration of one pass over the mix, in milliseconds."""
        started = time.perf_counter()
        self._mix()
        return (time.perf_counter() - started) * 1000.0

    def factor(self, before_ms, after_ms):
        """Scale for a wall time measured between two probes."""
        return self.ref_ms / ((before_ms + after_ms) / 2.0)


class TwoCoreProbe(HostProbe):
    """The one-core mix and two threads sorting at once, averaged.

    A pooled shard request is part coordinator work in this process and
    part worker work on both cores.  When the host takes parallelism
    away, the workers slow far more than the one-core mix shows; the
    ~3 ms two-thread ``np.sort`` (which releases the GIL) follows them.

    Each thread sorts in place in a buffer of its own: an ``np.sort``
    copy per thread grew a fresh malloc arena now and then, which moved
    the client's peak RSS by ~11 MB from run to run.
    """

    def __init__(self, ref_ms):
        super().__init__(ref_ms)
        rng = np.random.default_rng(0x5EED2)
        self._pair = [rng.integers(0, 1 << 31, 250000) for _ in range(2)]
        self._work = [np.empty_like(array) for array in self._pair]

    @staticmethod
    def _sort(array, work):
        np.copyto(work, array)
        work.sort()

    def _two_core_ms(self):
        threads = [threading.Thread(target=self._sort, args=pair)
                   for pair in zip(self._pair, self._work)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return (time.perf_counter() - started) * 1000.0

    def probe_ms(self):
        return (super().probe_ms() + self._two_core_ms()) / 2.0

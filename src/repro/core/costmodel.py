"""Calibrated analytic cost model for the builtin kernels.

Serving query traffic through the cycle-accurate ISS means every
predicate node pays per-instruction simulation cost, so DB throughput
is bounded by simulator speed rather than by the modeled hardware.
This module removes the simulator from the serving path while keeping
the *cycle numbers* exact:

* results are computed with vectorized set algebra / sorting over
  int64 RID arrays, and
* cycle counts are predicted from a per-(processor-config, kernel,
  unroll) linear model over *event counts* — how often each control
  path of the kernel executes for a given input.

Why this can be exact: on every catalog configuration the per-access
memory cost is a constant (local data memories have zero wait states,
the 108Mini system memory a fixed three, and no configuration has a
data cache), and every interlock/branch penalty is determined by the
instruction path alone.  Total cycles are therefore *exactly linear*
in the per-path event counts, which we can compute directly from the
operand values:

* scalar set kernels: merged-order event classification (``adva`` /
  ``advb`` / ``both`` / exit variant / drain lengths),
* scalar merge sort: per-pair take/drain interleave counts,
* EIS set kernels: a walk over comparison-window ends that counts
  fused-bundle iterations (loads, stores and the flush tail follow in
  closed form; no per-instruction simulation),
* EIS merge sort: a per-pass closed form of the pass/pair recurrence
  (its iteration counts are data-independent).

The coefficients are *calibrated*, not hand-derived: a one-time
micro-probe run executes each kernel on the ISS over a corpus of
inputs, an exact rational solver fits the event-count model, and the
fit is differentially validated against held-out probes.  A model that
does not reproduce the ISS bit-for-bit is discarded; the affected
(config, kernel) pair then permanently falls back to the ISS, bumping
the ``costmodel.fallback`` counter — the same degradation pattern as
the superblock fast path (``cpu.run.fallback``).

``REPRO_NO_COSTMODEL=1`` disables the model globally;
``REPRO_COSTMODEL_VERIFY=1`` shadows every prediction with a real ISS
run and falls back on any mismatch (the differential test suite's
belt-and-braces mode).
"""

import bisect
import math
import os
from fractions import Fraction

import numpy as np

from .common import LANES
from .kernels import DEFAULT_UNROLL, run_merge_sort, run_set_operation
from .scalar_kernels import (run_scalar_merge_sort,
                             run_scalar_set_operation)

#: Module-level calibration cache, shared across CostModel instances
#: the way compiled kernels are shared across processors:
#: (config signature, kernel kind) -> coefficient list or None (failed).
_CALIBRATIONS = {}


def clear_calibration_cache():
    _CALIBRATIONS.clear()


def calibration_cache_size():
    return len(_CALIBRATIONS)


# ---------------------------------------------------------------------------
# configuration signature
# ---------------------------------------------------------------------------

def config_signature(processor):
    """Hashable timing identity of a processor, or None if unmodelable.

    Captures every parameter the cycle count of a kernel can depend
    on.  Configurations with caches are refused outright: cache hits
    make the per-access cost history-dependent, which breaks the
    linear event-count model (such configs simply keep using the ISS).
    """
    config = processor.config
    if config.dcache is not None or config.icache is not None:
        return None
    pipe = config.pipeline
    return (
        config.name, config.num_lsus, config.lsu_port_bits,
        config.dmem0_kb, config.dmem1_kb, config.sysmem_wait_states,
        pipe.branch_taken_penalty, pipe.branch_nottaken_penalty,
        pipe.jump_penalty, pipe.call_penalty, pipe.indirect_penalty,
        pipe.load_use_delay, pipe.mul_use_delay, pipe.div_cycles,
        pipe.ifetch_stall_per_redirect,
    )


def _eis_extension(processor):
    for extension in processor.extensions:
        if getattr(extension, "name", "") == "db_eis":
            return extension
    return None


# ---------------------------------------------------------------------------
# exact rational solver
# ---------------------------------------------------------------------------

def solve_exact(rows, targets):
    """Any exact solution of ``rows @ c == targets`` or None.

    Gauss-Jordan over ``Fraction`` so there is no floating-point
    round-off: either the probe system is consistent (the event-count
    model holds) and we return one exact solution (free variables
    pinned to zero), or it is not and calibration fails.
    """
    if not rows:
        return None
    columns = len(rows[0])
    aug = [[Fraction(value) for value in row] + [Fraction(target)]
           for row, target in zip(rows, targets)]
    pivot_columns = []
    rank = 0
    for column in range(columns):
        pivot = next((i for i in range(rank, len(aug))
                      if aug[i][column] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inverse = Fraction(1) / aug[rank][column]
        aug[rank] = [value * inverse for value in aug[rank]]
        row_r = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][column]:
                factor = aug[i][column]
                aug[i] = [value - factor * pivot_value
                          for value, pivot_value in zip(aug[i], row_r)]
        pivot_columns.append(column)
        rank += 1
        if rank == len(aug):
            break
    for i in range(rank, len(aug)):
        if aug[i][columns] != 0:
            return None  # inconsistent: model does not fit the probes
    coefficients = [Fraction(0)] * columns
    for row_index, column in enumerate(pivot_columns):
        coefficients[column] = aug[row_index][columns]
    return coefficients


def _scale_coefficients(coefficients):
    """``(scaled integer coefficients, common denominator)``.

    Predictions happen per kernel launch, so the hot path uses plain
    integer arithmetic; the common denominator keeps it exact.
    """
    scale = 1
    for coefficient in coefficients:
        denominator = coefficient.denominator
        scale = scale * denominator // math.gcd(scale, denominator)
    return [int(c * scale) for c in coefficients], scale


def _predict(calibration, features):
    coefficients, scale = calibration
    total = 0
    for coefficient, feature in zip(coefficients, features):
        if feature:
            total += coefficient * feature
    if total < 0 or total % scale:
        return None  # feature vector outside the calibrated span
    return total // scale


# ---------------------------------------------------------------------------
# result computation (vectorized set algebra)
# ---------------------------------------------------------------------------

class _Unmodelable(ValueError):
    """The model cannot vouch for this call; fall back to the ISS.

    Raised for operands outside the kernels' contract (not strictly
    increasing) and for a walk whose result count or progress does
    not add up.
    """


def member_mask(set_a, set_b):
    """Boolean mask of the elements of int64 array *set_a* found in
    *set_b*: one ``searchsorted`` that both the result and the feature
    walk read.

    Raises :class:`_Unmodelable` unless both operands are strictly
    increasing — the kernels' contract, outside which only the ISS
    knows the output.
    """
    if (set_a[1:] <= set_a[:-1]).any() or (set_b[1:] <= set_b[:-1]).any():
        raise _Unmodelable("set operands must be strictly increasing")
    if not len(set_b):
        return np.zeros(len(set_a), dtype=bool)
    positions = np.searchsorted(set_b, set_a)
    np.minimum(positions, len(set_b) - 1, out=positions)
    return set_b[positions] == set_a


def set_result(which, set_a, set_b, member):
    """The kernel's result array, computed without the processor from
    the operands and their :func:`member_mask`.

    A union concatenates the A-only elements with B and sorts once: a
    stable sort merges the two ascending runs (NumPy 2's hash-based
    ``union1d`` is over 10x slower at serving sizes).
    """
    if which == "intersection":
        return set_a[member]
    if which == "difference":
        return set_a[~member]
    out = np.concatenate((set_a[~member], set_b))
    out.sort(kind="stable")
    return out


# ---------------------------------------------------------------------------
# feature extraction: scalar set kernels
# ---------------------------------------------------------------------------

# Feature layout (per operation; drain features appended as noted):
#   [both_nonempty, a_empty, b_empty_only,
#    n_adva, n_advb, n_both,
#    term_adva, term_advb, term_both_a, term_both_b,
#    n_drain_a (union/difference), n_drain_b (union)]

def scalar_set_features(which, set_a, set_b, member):
    """Event counts of the scalar set kernels for int64 operands and
    their :func:`member_mask`."""
    drains = {"intersection": 0, "difference": 1, "union": 2}[which]
    features = [0] * (10 + drains)
    if not len(set_a):
        features[1] = 1
        if drains == 2:
            features[11] = len(set_b)
        return features
    if not len(set_b):
        features[2] = 1
        if drains >= 1:
            features[10] = len(set_a)
        return features
    features[0] = 1
    last_a, last_b = int(set_a[-1]), int(set_b[-1])
    ceiling = last_a if last_a < last_b else last_b
    count_a = int(np.searchsorted(set_a, ceiling, side="right"))
    count_b = int(np.searchsorted(set_b, ceiling, side="right"))
    in_a = count_a > 0 and set_a[count_a - 1] == ceiling
    in_b = count_b > 0 and set_b[count_b - 1] == ceiling
    # values in both prefixes: A's elements up to the ceiling found in B
    n_both = int(np.count_nonzero(member[:count_a]))
    n_adva = count_a - n_both
    n_advb = count_b - n_both
    if in_a and in_b:
        n_both -= 1
        features[8 if ceiling == last_a else 9] = 1
    elif in_a:  # ceiling == last_a: A exhausts via adva
        n_adva -= 1
        features[6] = 1
    else:
        n_advb -= 1
        features[7] = 1
    features[3] = n_adva
    features[4] = n_advb
    features[5] = n_both
    if drains >= 1:
        features[10] = len(set_a) - count_a
    if drains == 2:
        features[11] = len(set_b) - count_b
    return features


# ---------------------------------------------------------------------------
# feature extraction: scalar merge sort
# ---------------------------------------------------------------------------

# Feature layout:
#   [1, n_pass, n_pair, n_take_a, n_take_b,
#    n_pair_drain_a, n_pair_drain_b, n_drain_a, n_drain_b]

def scalar_sort_features(values):
    n = len(values)
    features = [1, 0, 0, 0, 0, 0, 0, 0, 0]
    if n <= 1:
        return features
    current = list(values)
    run = 1
    while run < n:
        features[1] += 1
        merged = []
        position = 0
        while position < n:
            end_a = min(position + run, n)
            end_b = min(position + 2 * run, n)
            run_a = current[position:end_a]
            run_b = current[end_a:end_b]
            features[2] += 1
            if not run_b:
                features[5] += 1
                features[7] += len(run_a)
            else:
                # Elements of B emitted before A's last element (ties
                # emit A first: the kernel's bgtu takes B only on >).
                before_a = bisect.bisect_left(run_b, run_a[-1])
                before_b = bisect.bisect_right(run_a, run_b[-1])
                if len(run_a) + before_a < len(run_b) + before_b:
                    # A exhausts first; the rest of B drains.
                    features[3] += len(run_a)
                    features[4] += before_a
                    features[6] += 1
                    features[8] += len(run_b) - before_a
                else:
                    features[3] += before_b
                    features[4] += len(run_b)
                    features[5] += 1
                    features[7] += len(run_a) - before_b
            merged.extend(sorted(run_a + run_b))
            position = end_b
        current = merged
        run *= 2
    return features


# ---------------------------------------------------------------------------
# feature extraction: EIS set kernels (window-end walk)
# ---------------------------------------------------------------------------

_SET_WALK_OPS = {"intersection": 0, "union": 1, "difference": 2}


def eis_set_features(which, set_a, set_b, partial_load,
                     unroll=DEFAULT_UNROLL, member=None):
    """``([1, k, wraps, block_loads, block_stores, flush_lanes], total)``.

    ``k`` is the number of ``store_sop`` bundles the kernel executes
    (the single data-dependent quantity of the Figure 11 loop), and
    ``wraps`` the resulting back-jump count of the ``unroll``-deep
    loop body.  The trailing features cover the 128-bit loads/stores
    and the sub-block flush tail so configurations with non-zero
    memory wait states stay in-model; ``total`` is the result count.

    Operands must be strictly increasing.  The comparison windows then
    hold contiguous slices of them, and every SOP step of
    :class:`repro.core.datapath.SetDatapath` is a value cut: it
    consumes whole the window with the smaller maximum (both on a tie)
    and the other window up to that maximum, except that a union step
    whose result would overflow the 4-lane result state stops at its
    fourth distinct value.  Step result counts come from ``common``,
    the prefix count of A elements also in B: one cumulative sum of
    *member*, the operands' :func:`member_mask` (computed here when
    the caller does not pass the one it priced the result with).

    Only ``k`` needs a walk, and it walks window ends rather than
    datapath ops.  The Load stage holds one aligned 128-bit block per
    operand and fetches the next as soon as the window has taken all
    of it, so after every iteration but the first a window end is
    refilled to ``min(start + 4, (end | 3) + 1, len)`` — each
    iteration under partial loading, only once the window drains
    otherwise.  Iteration 1 has nothing staged yet, so iteration 2
    stalls if it finds a window drained with lanes pending.  That is
    the only stall: a step emits at most 4 lanes and the FIFO passes
    a full block to the store stage every iteration, so it holds at
    most 3 lanes after each one.  Hence the closed forms: block loads
    ``ceil(|A|/4) + ceil(|B|/4)``, block stores ``total // 4`` and
    flush lanes ``total % 4``; the loop ends with one idle iteration
    after the last step that had results, and once an operand is
    exhausted the other drains one window per iteration, counted
    without walking.
    """
    set_a = np.asarray(set_a, dtype=np.int64)
    set_b = np.asarray(set_b, dtype=np.int64)
    if member is None:
        member = member_mask(set_a, set_b)
    op = _SET_WALK_OPS[which]
    union = op == 1
    len_a = len(set_a)
    len_b = len(set_b)
    common = np.concatenate(([0], np.cumsum(member)))
    if union:  # only union steps read it inside the walk
        common = common.tolist()
    # the walk indexes and bisects: Python lists beat array scalars
    set_a = set_a.tolist()
    set_b = set_b.tolist()
    bisect_right = bisect.bisect_right
    a = b = a0 = b0 = 0  # window starts; a0/b0: where the last step began
    end_a = LANES if len_a > LANES else len_a  # window ends (exclusive)
    end_b = LANES if len_b > LANES else len_b
    iterations = 0
    while a < len_a and b < len_b:
        a0 = a
        b0 = b
        max_a = set_a[end_a - 1]
        max_b = set_b[end_b - 1]
        if max_a <= max_b:
            b = bisect_right(set_b, max_a, b, end_b)
            a = end_a
        else:
            a = bisect_right(set_a, max_b, a, end_a)
            b = end_b
        if union:
            excess = a - a0 + b - b0 - common[a] + common[a0] - LANES
            if excess > 0:
                # giving values back only undoes progress when the
                # operands are not strictly increasing
                if iterations > len_a + len_b:
                    raise _Unmodelable("set walk failed to converge")
                # give back the largest distinct values until 4 remain
                while excess:
                    x = set_a[a - 1]
                    y = set_b[b - 1]
                    if x >= y:
                        a -= 1
                    if y >= x:
                        b -= 1
                    excess -= 1
        iterations += 1
        if iterations == 1:
            if not (a == end_a < len_a or b == end_b < len_b):
                continue  # nothing staged to refill from yet
            iterations = 2  # iteration 2 stalls on the drained window
        # refill: end = min(start, end rounded down to a block) + 4
        if partial_load or a == end_a:
            end = end_a & -LANES
            if a < end:
                end = a
            end_a = end + LANES if end + LANES < len_a else len_a
        if partial_load or b == end_b:
            end = end_b & -LANES
            if b < end:
                end = b
            end_b = end + LANES if end + LANES < len_b else len_b
    overlap = int(common[a] - common[a0])
    if a < len_a:  # B exhausted: A drains
        end, length = end_a, len_a
        last = op != 0
    elif b < len_b:  # A exhausted: B drains
        end, length = end_b, len_b
        last = union
    else:
        length = 0
        last = (overlap, a - a0 + b - b0 - overlap,
                a - a0 - overlap)[op]
    if length:
        if not iterations and length > LANES:
            iterations = 1  # an operand was empty: iteration 2 stalls
        # the current window, then one per remaining aligned block
        iterations += 1
        if end < length:
            iterations += -(-length // LANES) - end // LANES
    if last or not iterations:
        iterations += 1  # the idle iteration that ends the loop
    overlap = int(common[len_a])
    total = (overlap, len_a + len_b - overlap, len_a - overlap)[op]
    block_loads = -(-len_a // LANES) - (-len_b // LANES)
    return [1, iterations, (iterations - 1) // unroll, block_loads,
            total // LANES, total % LANES], total


# ---------------------------------------------------------------------------
# feature extraction: EIS merge sort (closed form)
# ---------------------------------------------------------------------------

def eis_sort_features(length, presort_unroll=16, merge_unroll=16):
    """[1, presort_iters, presort_wraps, passes, pairs,
    sum_targets, merge_wraps].

    The EIS merge pipeline refills the consumed stage in the same
    MLDSEL and fires the merge network every iteration, so each pair
    of runs takes exactly ``target + 2`` fused-bundle iterations where
    ``target`` is the pair's 128-bit block count — the cycle count is
    a pure function of the (padded) input length.  A pass over runs of
    ``run`` words merges ``padded // (2 * run)`` full pairs of
    ``2 * run / 4`` blocks plus at most one shorter remainder pair, and
    its targets sum to the block count.
    """
    padded = length + (-length) % LANES
    blocks = padded // LANES
    presort = max(blocks, 1)
    features = [1, presort, (presort - 1) // presort_unroll, 0, 0, 0, 0]
    run = LANES
    while run < padded:
        span = 2 * run
        pairs, remainder = divmod(padded, span)
        features[6] += pairs * ((span // LANES + 1) // merge_unroll)
        if remainder:
            pairs += 1
            features[6] += (remainder // LANES + 1) // merge_unroll
        features[3] += 1
        features[4] += pairs
        features[5] += blocks
        run = span
    return features


# ---------------------------------------------------------------------------
# probe corpora
# ---------------------------------------------------------------------------

def _sorted_sample(rng, size, universe):
    if size <= 0:
        return []
    return sorted(rng.sample(range(universe), size))


def _set_probe_inputs():
    """Deterministic calibration + validation inputs for set kernels."""
    import random
    rng = random.Random(0x5E7CA1)
    probes = [
        ([], []), ([], [5]), ([7], []), ([3], [3]), ([3], [9]),
        ([9], [3]), ([1, 2, 3, 4], [1, 2, 3, 4]),
        (list(range(0, 40, 2)), list(range(1, 41, 2))),
        (list(range(10)), list(range(5, 15))),
        (list(range(30)), [29]), ([0], list(range(30))),
        (list(range(0, 64, 3)), list(range(0, 64, 4))),
        (list(range(8)), list(range(8, 16))),
        (list(range(8, 16)), list(range(8))),
        (list(range(0, 200, 2)), list(range(1, 200, 2))),
    ]
    for _ in range(12):
        size_a = rng.randrange(0, 60)
        size_b = rng.randrange(0, 60)
        probes.append((_sorted_sample(rng, size_a, 160),
                       _sorted_sample(rng, size_b, 160)))
    validation = [
        (list(range(1, 26, 2)), list(range(0, 26, 3))),
        ([2], []), ([], [2, 4, 6]), ([5, 6, 7], [5, 6, 7, 8]),
    ]
    for _ in range(8):
        size_a = rng.randrange(0, 80)
        size_b = rng.randrange(0, 80)
        validation.append((_sorted_sample(rng, size_a, 220),
                           _sorted_sample(rng, size_b, 220)))
    return probes, validation


def _sort_probe_inputs():
    import random
    rng = random.Random(0xB17_50F7)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 25, 31, 32, 40,
             52, 64, 68, 96, 128, 140]
    probes = [([rng.randrange(0, 4000) for _ in range(size)],)
              for size in sizes]
    probes.append(([7],))
    probes.append(([9, 9, 9, 9, 9, 1],))
    probes.append((list(range(48)),))
    probes.append((list(range(48, 0, -1)),))
    validation = [([rng.randrange(0, 4000) for _ in range(size)],)
                  for size in (9, 11, 19, 27, 37, 45, 70, 100, 130)]
    return probes, validation


_SET_PROBES = None
_SORT_PROBES = None


def _as_arrays(probe_sets):
    """Probe corpora with every operand an int64 array, the type the
    models and runners take."""
    return tuple([tuple(np.asarray(operand, dtype=np.int64)
                        for operand in args) for args in probes]
                 for probes in probe_sets)


def _set_probes():
    global _SET_PROBES
    if _SET_PROBES is None:
        _SET_PROBES = _as_arrays(_set_probe_inputs())
    return _SET_PROBES


def _sort_probes():
    global _SORT_PROBES
    if _SORT_PROBES is None:
        _SORT_PROBES = _as_arrays(_sort_probe_inputs())
    return _SORT_PROBES


# ---------------------------------------------------------------------------
# the cost model
# ---------------------------------------------------------------------------

class CostModel:
    """Exact-cycle kernel execution without instruction simulation.

    One instance can serve any number of processors; calibrations are
    cached per configuration signature (module-level, like the kernel
    compile cache).  Every public entry point returns
    ``(values, cycles, source)`` where *source* is ``"costmodel"`` or
    ``"iss"`` (the fallback), and the values/cycles are bit-identical
    between the two sources by construction.
    """

    def __init__(self, enabled=None, verify=None):
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_COSTMODEL", "") != "1"
        if verify is None:
            verify = os.environ.get("REPRO_COSTMODEL_VERIFY", "") == "1"
        self.enabled = enabled
        self.verify = verify
        self.counters = {"hits": 0, "fallbacks": 0, "calibrations": 0,
                         "calibration_failures": 0, "mismatches": 0}

    # -- public API ----------------------------------------------------------

    def set_operation(self, processor, which, set_a, set_b,
                      unroll=DEFAULT_UNROLL):
        """Model one set kernel; ``(values, cycles, source)``.

        The operands are int64 RID arrays (other integer sequences are
        converted) and *values* is one.  A's membership in B is
        computed once and gives both the result and the feature
        walk's prefix count.  Both operands must be strictly
        increasing, the kernels' contract: anything else (an ``In``
        leaf with repeated probe values, say) runs on the ISS, whose
        output is then the answer.
        """
        set_a = np.asarray(set_a, dtype=np.int64)
        set_b = np.asarray(set_b, dtype=np.int64)
        extension = _eis_extension(processor)
        if extension is not None:
            partial = bool(extension.setdp.partial_load)
            kind = ("eis_set", which, partial, unroll)

            def runner(proc, a, b):
                return run_set_operation(proc, which, a, b,
                                         unroll=unroll,
                                         validate_input=False)

            def features(a, b, member, values):
                computed, total = eis_set_features(
                    which, a, b, partial, unroll, member)
                if total != len(values):
                    raise _Unmodelable("walk/result count mismatch")
                return computed
        else:
            kind = ("scalar_set", which)

            def runner(proc, a, b):
                return run_scalar_set_operation(proc, which, a, b,
                                                validate_input=False)

            def features(a, b, member, _values):
                return scalar_set_features(which, a, b, member)

        def model(a, b):
            # member_mask vets the operands before any feature walk
            member = member_mask(a, b)
            values = set_result(which, a, b, member)
            return features(a, b, member, values), values

        return self._execute(processor, kind, runner, model,
                             _set_probes(), (set_a, set_b))

    def merge_sort(self, processor, values):
        """Model one sort kernel; ``(sorted values, cycles, source)``.

        *values* is an int64 array (other integer sequences are
        converted) and so is the sorted output.
        """
        values = np.asarray(values, dtype=np.int64)
        extension = _eis_extension(processor)
        if extension is not None:
            kind = ("eis_sort",)

            def runner(proc, data):
                return run_merge_sort(proc, data, validate_input=False)

            def model(data):
                return eis_sort_features(len(data)), np.sort(data)
        else:
            if not len(values):
                # mirror run_scalar_merge_sort's degenerate empty run
                return values, 0, "costmodel"
            kind = ("scalar_sort",)

            def runner(proc, data):
                return run_scalar_merge_sort(proc, data,
                                             validate_input=False)

            def model(data):
                return scalar_sort_features(data.tolist()), np.sort(data)

        probes, validation = _sort_probes()
        if extension is None:
            probes = [p for p in probes if len(p[0])]
            validation = [p for p in validation if len(p[0])]
        return self._execute(processor, kind, runner, model,
                             (probes, validation), (values,))

    def stats(self):
        """Counter snapshot (``costmodel.*`` in engine telemetry)."""
        return dict(self.counters)

    # -- internals -----------------------------------------------------------

    def _execute(self, processor, kind, runner, model, probe_sets, args):
        """Serve one call: ``model(*args)`` gives ``(features, values)``
        or raises :class:`_Unmodelable`; anything the calibrated model
        cannot price runs on the ISS (``runner``, a kernel runner on
        list operands) and counts as a fallback."""
        cycles = None
        if self.enabled and getattr(processor, "_fault_hook",
                                    None) is None:
            coefficients = self._calibration(processor, kind, runner,
                                             model, probe_sets)
            if coefficients is not None:
                try:
                    features, values = model(*args)
                except _Unmodelable:
                    pass
                else:
                    cycles = _predict(coefficients, features)
        if cycles is None:
            values, run = _run_iss(runner, processor, args)
            self.counters["fallbacks"] += 1
            return values, run.cycles, "iss"
        if self.verify:
            iss_values, iss_run = _run_iss(runner, processor, args)
            if not np.array_equal(iss_values, values) \
                    or iss_run.cycles != cycles:
                self.counters["mismatches"] += 1
                self.counters["fallbacks"] += 1
                return iss_values, iss_run.cycles, "iss"
        self.counters["hits"] += 1
        return values, cycles, "costmodel"

    def _calibration(self, processor, kind, runner, model, probe_sets):
        signature = config_signature(processor)
        if signature is None:
            return None
        key = (signature, kind)
        if key in _CALIBRATIONS:
            return _CALIBRATIONS[key]
        coefficients = self._calibrate(processor, runner, model,
                                       probe_sets)
        _CALIBRATIONS[key] = coefficients
        if coefficients is None:
            self.counters["calibration_failures"] += 1
        else:
            self.counters["calibrations"] += 1
        return coefficients

    def _calibrate(self, processor, runner, model, probe_sets):
        """Fit and differentially validate one (config, kernel) model."""
        probes, validation = probe_sets
        rows = []
        cycles = []
        try:
            for args in probes:
                rows.append(model(*args)[0])
                _values, run = _run_iss(runner, processor, args)
                cycles.append(run.cycles)
            solution = solve_exact(rows, cycles)
            if solution is None:
                return None
            coefficients = _scale_coefficients(solution)
            for args in validation:
                predicted = _predict(coefficients, model(*args)[0])
                _values, run = _run_iss(runner, processor, args)
                if predicted != run.cycles:
                    return None
        except Exception:
            # any probe failure (walk divergence, simulation error,
            # unexpected input shape) means "cannot model": fall back
            return None
        return coefficients


def _run_iss(runner, processor, args):
    """Run a kernel runner on the array operands *args*: the ISS reads
    lists, and its output becomes an int64 array here."""
    values, run = runner(processor, *[arg.tolist() for arg in args])
    return np.array(values, dtype=np.int64), run


_DEFAULT_MODEL = None


def default_cost_model():
    """Process-wide shared CostModel (calibrations amortize across
    executors, engines and CLI invocations)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = CostModel()
    return _DEFAULT_MODEL

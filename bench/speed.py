"""How fast the host runs Python right now, against a fixed reference.

The host this benchmark was built on drifts: a fixed loop's throughput,
averaged over 20-second windows, ranged from 195 to 286 per second within
five minutes while the machine was otherwise idle.  So the benchmark times a
fixed slice of interpreter work next to the operations it measures and
reports timings at the reference speed, at which one slice takes
SLICE_REF_S.  The slice is reference-side work of the same kind as the
package's (sets, tuples, dicts, recursion, string building: evaluating a
fixed query on a fixed document and rendering a fixed DTD); in a trial, it
cancelled the drift better than pure integer arithmetic did.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import ref
import workloads

SLICE_REF_S = 0.001

_rng = random.Random(5)
_DOC = ref.Sampler(workloads.worked_dtd(), _rng, depth=12, rep=2, cap=300,
                   star_p=0.5).sample(spine=8)
_QUERY, _ = ref.walk(_DOC, _rng, 0, 30, workloads.EVAL1_AXES)
_SCHEMA = workloads.mrw_dtd(random.Random(3), (1, 3, 8, 18))


def speed_slice() -> float:
    """Seconds one slice took.  The cyclic collector is held off during the
    slice, so a collection of the surrounding process's heap never lands
    in it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(10):
            ref.evaluate(_DOC, _QUERY)
            _SCHEMA.text()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def slowdown(slices) -> float:
    """How much slower than the reference the host ran while these slices
    were timed."""
    return statistics.fmean(slices) / SLICE_REF_S

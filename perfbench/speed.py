"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of one core drifts by up to 2x over tens of
seconds (a fixed pure-Python loop measured 20 ms and 34 ms a minute
apart, pinned to the same core), which swamps any change a later commit
could make.  Each timed stretch of requests is therefore bracketed by a
fixed calibration loop, and its wall times are scaled by
REFERENCE_S / (loop time).  The result is the wall time the request
would take at the host's reference speed.  Raw wall times are kept in
the result file beside the scaled ones.

The loop is plain interpreter arithmetic and imports nothing: of the
kernels tried (this loop, a dict-of-rows matvec, a 160 x 160 complex
matmul) it tracked the drift of the deep_dag request best, cutting the
spread of 11-second window medians from 45% to 9%.
"""

from __future__ import annotations

import time

LOOPS = 60_000
# Time of the loop on the unloaded host the benchmark was defined on
# (Intel Xeon, 2 vCPUs under KVM, CPython 3.11): 11.7 to 12.1 ms.
REFERENCE_S = 0.012


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    acc = 0j
    for i in range(LOOPS):
        acc += complex(i, 1) * 0.5
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale from wall time to reference-speed time for a stretch bracketed by two loops."""
    return REFERENCE_S / (0.5 * (before + after))

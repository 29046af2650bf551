"""Host speed probe: the benchmark's times are reported in reference seconds.

Other tenants of the host change its speed by 20-40% for tens of seconds at
a time. A fixed pure-Python loop timed just before and just after an
interval, in the process that runs the interval, tracks that speed; the
interval times REFERENCE_CALIBRATION_S over the mean of the two loop times
is the interval in reference seconds.
"""
from time import perf_counter

CALIBRATION_LOOPS = 200_000
REFERENCE_CALIBRATION_S = 0.020  # the loop's typical time on a 2-core Xeon VM


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, a probe of the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """Reference seconds per measured second, from the calibrations around an interval."""
    return 2 * REFERENCE_CALIBRATION_S / (before + after)

"""A fixed piece of pure-Python work that gauges the machine's speed.

On a shared machine one core's speed moves by up to 1.6x from one tenth of
a second to the next, and for a minute or more at a time, with the load
that other tenants put on the same physical core; process CPU time moves
with it.  Timing this loop right before and right after each execution of
a query tells how fast the machine ran meanwhile, and

    time at reference speed = measured time * NOMINAL_S / gauge time

gives the execution's time at one fixed speed: the speed at which the loop
takes NOMINAL_S.  The loop does what the package does most, set and dict
operations on state-name strings, and owes nothing to the package, so a
change to the package cannot move the gauge.
"""

from __future__ import annotations

from time import perf_counter

REPEATS = 10
NOMINAL_S = 4.0e-3  # about the loop's median time on a 2-vCPU shared VM

_N = 3000
_NAMES = tuple(f"w{i}" for i in range(_N))
# two successors per name; built once, so that a reading allocates little
# beyond a few sets and cannot move the run's peak memory
_SUCC = {name: (_NAMES[(7 * i + 3) % _N], _NAMES[(i + 1) % _N]) for i, name in enumerate(_NAMES)}


def _work() -> int:
    reached = 0
    for _ in range(REPEATS):
        seen = set()
        frontier = set(_NAMES[:10])
        for _ in range(8):
            seen |= frontier
            frontier = {v for u in frontier for v in _SUCC[u]} - seen
        reached += len(seen)
    return reached


def gauge() -> float:
    """Seconds one pass of the loop takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two gauge readings, at reference speed."""
    return seconds * NOMINAL_S * 2 / (before + after)

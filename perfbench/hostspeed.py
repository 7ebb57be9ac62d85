"""The host's speed, measured by a fixed reference kernel between passes.

The benchmark runs on a few cores of a shared machine whose speed moves
with its neighbours: a plain Python loop runs up to twice as slowly in
slow stretches, which last from a fraction of a second to minutes, and
its CPU time moves with its wall time.  A pass timed alone measures the
neighbours as much as the program.

So every end-to-end time is taken together with the host's speed around
it.  Blocks of the reference kernel below run between the timed
intervals, and the intervals are scaled by the speed those blocks
measured, pooled.  The result is in *reference seconds*: roughly the
seconds an interval would have taken on a host that runs one kernel unit
in ``UNIT_S`` seconds.  A slower program gives proportionally more
reference seconds; a slower host gives about the same.

The kernel is pure Python (list building, comparisons, ``min``, dict
counting) over a few thousand strands, the mix and working set the
program's own hot loops have: a kernel on two strands alone slowed
more than the program in the host's slow stretches.  It lives in the
benchmark, so no change to the program can change it.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass

#: Seconds one kernel unit takes on the reference host.
UNIT_S = 0.005

#: How far the program's time follows the kernel's: a host on which the
#: kernel runs ``x`` times slower runs the program about ``x ** 0.75``
#: times slower.  Regressing the workloads' log pass times on the log
#: kernel unit times, both over the same ~30-second windows, gave slopes
#: of 0.65 to 0.94; scaling by the full ratio overcorrected.
HOST_EXPONENT = 0.75

_POOL_RNG = random.Random(1)
_POOL = tuple("".join(_POOL_RNG.choices("ACGT", k=110)) for _ in range(4000))
_next_pair = itertools.count()


def _unit() -> int:
    """One kernel unit: tally the aligned bases of the next pair of pool
    strands, then their edit distance."""
    index = next(_next_pair)
    a = _POOL[index * 7919 % len(_POOL)]
    b = _POOL[(index * 104729 + 1) % len(_POOL)]
    counts: dict[tuple[int, str, str], int] = {}
    for key in zip(range(len(a)), a, b):
        counts[key] = counts.get(key, 0) + 1
    previous = list(range(len(b) + 1))
    for i, base_a in enumerate(a, 1):
        current = [i]
        for j, base_b in enumerate(b, 1):
            substitute = previous[j - 1] + (base_a != base_b)
            current.append(min(previous[j] + 1, current[j - 1] + 1, substitute))
        previous = current
    return previous[-1] + len(counts)


@dataclass(frozen=True)
class Block:
    """One block of kernel units and the wall seconds it took."""

    units: int
    seconds: float


def run_block(min_seconds: float) -> Block:
    """Run kernel units until at least ``min_seconds`` have passed.

    The collector is off meanwhile (the kernel makes no cycles), so the
    objects a pass leaves alive cannot slow the kernel down.
    """
    units = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        while True:
            _unit()
            units += 1
            seconds = time.perf_counter() - started
            if seconds >= min_seconds:
                return Block(units, seconds)
    finally:
        if collecting:
            gc.enable()


def unit_seconds(blocks: list[Block]) -> float:
    """The host's seconds per kernel unit over ``blocks``."""
    return sum(block.seconds for block in blocks) / sum(b.units for b in blocks)


def to_reference(seconds: float, blocks: list[Block]) -> float:
    """``seconds`` measured among ``blocks``, in reference seconds."""
    return seconds * (UNIT_S / unit_seconds(blocks)) ** HOST_EXPONENT

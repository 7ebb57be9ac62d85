"""Alignment-kernel benchmarks, recorded to ``BENCH_kernels.json``.

Times each kernel (exact edit distance, banded edit distance, the
one-vs-many batch kernel, and gestalt matching blocks) at the paper's
strand length (110) plus 220 and 1000, calling the reference and the
fast functions directly:

* ``python`` — the seed's pure-Python DPs (the test references);
* ``bitparallel`` — the scalar Myers kernel (pairwise calls, and
  one-vs-many batches below ``_BATCH_MIN_READS`` reads);
* ``batched`` — the lane-batched uint64 sweep (one-vs-many batches of at
  least ``_BATCH_MIN_READS`` reads);
* ``auto`` — for matching blocks, the size-split LCS (NumPy rows for
  large regions, the Python recursion for small ones).

It also times greedy clustering end to end with the reference banded DP
swapped in versus the shipped kernels.  The JSON lands at the repo root
so the kernel perf trajectory is recorded PR over PR.

Three floors are asserted:

* bit-parallel exact distance >= 5x the pure-Python DP at length 110;
* clustering end-to-end >= 2x with the shipped kernels vs the reference
  DP, with bit-identical assignments;
* the batched one-vs-many sweep >= 10x scalar bit-parallel on a
  4096-read batch of length-110 strands, bit-identical distances.
"""

from __future__ import annotations

import json
import random
import time
import sys
from pathlib import Path
from unittest import mock

from repro.align import kernels
from repro.align.gestalt import clear_block_cache, matching_blocks
from repro.align.kernels import CompiledPattern
from repro.cluster.greedy import GreedyClusterer
from repro.core.channel import Channel
from repro.data.nanopore import ground_truth_model
from repro.observability.bench import assert_stamped, stamp_record
from repro.report.history import append_record

#: Where the kernel-timing record lands (the repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

STRAND_LENGTHS = (110, 220, 1000)

BAND = 25

#: Pairs timed per (kernel, length) cell; long strands use fewer.
PAIRS_PER_CELL = {110: 40, 220: 20, 1000: 4}

#: Acceptance floors (ISSUE 3; batched floor from ISSUE 7).
MIN_KERNEL_SPEEDUP = 5.0
MIN_CLUSTER_SPEEDUP = 2.0
MIN_BATCHED_SPEEDUP = 10.0

#: One-vs-many batch size for the batched-sweep floor: wide enough
#: that NumPy per-op dispatch overhead is amortised across lanes (the
#: sweep's per-pair cost keeps dropping up to ~4k lanes).
BATCH_READS = 4096

#: Clustering corpus shape: references x noisy copies each.
CLUSTER_REFERENCES = 40
CLUSTER_COVERAGE = 8


def _noisy_pairs(length: int, count: int) -> list[tuple[str, str]]:
    rng = random.Random(length)
    channel = Channel(ground_truth_model(), random.Random(length + 1))
    pairs = []
    for _ in range(count):
        reference = "".join(rng.choice("ACGT") for _ in range(length))
        pairs.append((reference, channel.transmit(reference)))
    return pairs


def _time_per_pair(function, pairs, repeats: int = 3) -> float:
    """Best-of-``repeats`` mean ns per pair."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for first, second in pairs:
            function(first, second)
        best = min(best, time.perf_counter() - start)
    return best / len(pairs) * 1e9


def _python_banded_distances(pattern, others, band):
    """``CompiledPattern.banded_distances`` over the reference banded DP."""
    return [
        band + 1
        if abs(len(pattern.text) - len(other)) > band
        else kernels._python_banded(pattern.text, other, band)
        for other in others
    ]


def _scalar_one_to_many(reference: str, reads: list[str]) -> list[int]:
    """The one-vs-many shape on the scalar kernel (one mask build)."""
    pattern = CompiledPattern(reference)
    return [pattern.distance(read) for read in reads]


def _batched_one_to_many(reference: str, reads: list[str]) -> list[int]:
    """The one-vs-many shape as one lane-batched sweep."""
    return kernels._batched_distances(kernels._PackedPattern(reference), reads, None)


def _time_once(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _blocks_ns_per_pair(pairs, lcs_numpy_min_cells: int) -> float:
    """Cold matching-block decompositions with the LCS size split set to
    ``lcs_numpy_min_cells`` (``sys.maxsize``: Python recursion only)."""
    with mock.patch.object(kernels, "_LCS_NUMPY_MIN_CELLS", lcs_numpy_min_cells):
        return _time_per_pair(
            lambda a, b: (clear_block_cache(), matching_blocks(a, b))[1],
            pairs,
            repeats=2,
        )


def test_bench_kernels_record():
    """Time every kernel x path x length cell and write the record."""
    kernels_record: dict[str, dict] = {}
    for length in STRAND_LENGTHS:
        pairs = _noisy_pairs(length, PAIRS_PER_CELL[length])
        reads = [second for _, second in pairs]
        reference = pairs[0][0]
        per_read = 1e9 / len(reads)
        kernels_record[str(length)] = {
            "edit_distance": {
                "python": _time_per_pair(kernels._python_distance, pairs),
                "bitparallel": _time_per_pair(kernels._bitparallel_distance, pairs),
            },
            "banded_distance": {
                "python": _time_per_pair(
                    lambda a, b: kernels._python_banded(a, b, BAND), pairs
                ),
                "bitparallel": _time_per_pair(
                    lambda a, b: kernels._bitparallel_banded(a, b, BAND), pairs
                ),
            },
            "one_to_many": {
                "python": per_read * _time_once(
                    lambda: [kernels._python_distance(reference, r) for r in reads]
                ),
                "bitparallel": per_read * _time_once(
                    lambda: _scalar_one_to_many(reference, reads)
                ),
                "batched": per_read * _time_once(
                    lambda: _batched_one_to_many(reference, reads)
                ),
            },
            "matching_blocks": {
                "python": _blocks_ns_per_pair(pairs, sys.maxsize),
                "auto": _blocks_ns_per_pair(pairs, kernels._LCS_NUMPY_MIN_CELLS),
            },
        }

    # Clustering end-to-end: the reference banded DP vs the kernels.
    rng = random.Random(99)
    channel = Channel(ground_truth_model(), random.Random(100))
    references = [
        "".join(rng.choice("ACGT") for _ in range(110))
        for _ in range(CLUSTER_REFERENCES)
    ]
    reads = [
        channel.transmit(reference)
        for reference in references
        for _ in range(CLUSTER_COVERAGE)
    ]
    rng.shuffle(reads)
    results = {}
    clustering: dict[str, float] = {}
    with mock.patch.object(
        CompiledPattern, "banded_distances", _python_banded_distances
    ):
        clustering["python"] = _time_once(
            lambda: results.update(python=GreedyClusterer().cluster(reads))
        )
    clustering["bitparallel"] = _time_once(
        lambda: results.update(bitparallel=GreedyClusterer().cluster(reads))
    )
    assert results["bitparallel"].assignments == results["python"].assignments
    clustering["speedup"] = clustering["python"] / clustering["bitparallel"]

    # Batched one-vs-many floor: a paper-length reference against a
    # 4096-read batch, scalar bit-parallel vs the uint64 batched sweep.
    batch_rng = random.Random(101)
    batch_channel = Channel(ground_truth_model(), random.Random(102))
    batch_reference = "".join(batch_rng.choice("ACGT") for _ in range(110))
    batch_reads = [
        batch_channel.transmit(batch_reference) for _ in range(BATCH_READS)
    ]
    scalar_distances = _scalar_one_to_many(batch_reference, batch_reads)
    scalar_s = _time_once(lambda: _scalar_one_to_many(batch_reference, batch_reads))
    batched_distances = _batched_one_to_many(batch_reference, batch_reads)
    batched_s = min(
        _time_once(lambda: _batched_one_to_many(batch_reference, batch_reads))
        for _ in range(3)
    )
    assert batched_distances == scalar_distances
    batched_record = {
        "reads": BATCH_READS,
        "strand_length": 110,
        "bitparallel_ns_per_pair": scalar_s / BATCH_READS * 1e9,
        "batched_ns_per_pair": batched_s / BATCH_READS * 1e9,
        "speedup": scalar_s / batched_s,
    }

    length_110 = kernels_record["110"]["edit_distance"]
    kernel_speedup = length_110["python"] / length_110["bitparallel"]
    record = stamp_record(
        {
            "band": BAND,
            "pairs_per_cell": PAIRS_PER_CELL,
            "kernels_ns_per_pair": kernels_record,
            "clustering": {
                "reads": len(reads),
                "strand_length": 110,
                "python_s": clustering["python"],
                "bitparallel_s": clustering["bitparallel"],
                "speedup": clustering["speedup"],
            },
            "batched_one_to_many": batched_record,
            "edit_distance_110_speedup": kernel_speedup,
        }
    )
    assert_stamped(record)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    append_record(record, "kernels", root=BENCH_JSON.parent)

    assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
        f"bit-parallel edit distance is only {kernel_speedup:.1f}x the "
        f"python DP at length 110 (floor {MIN_KERNEL_SPEEDUP}x; timings "
        f"recorded in {BENCH_JSON.name})"
    )
    assert clustering["speedup"] >= MIN_CLUSTER_SPEEDUP, (
        f"clustering end-to-end is only {clustering['speedup']:.2f}x "
        f"under bitparallel (floor {MIN_CLUSTER_SPEEDUP}x; timings "
        f"recorded in {BENCH_JSON.name})"
    )
    assert batched_record["speedup"] >= MIN_BATCHED_SPEEDUP, (
        f"batched one-vs-many sweep is only {batched_record['speedup']:.1f}x "
        f"scalar bit-parallel on {BATCH_READS} length-110 reads (floor "
        f"{MIN_BATCHED_SPEEDUP}x; timings recorded in {BENCH_JSON.name})"
    )

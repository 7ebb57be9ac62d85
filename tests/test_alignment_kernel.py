"""Differential tests of the lane-batched Algorithm 2 kernel.

The reference is the scalar backtrace the kernel replaced: a walk over
the full :func:`edit_distance_matrix` that builds every cell's candidate
list (diagonal, deletion, insertion) and takes the first one, or
``rng.choice`` among them.  The kernel must return the same operations
and, in ``rng`` mode, leave the generator in the same state.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import operations
from repro.align.edit_distance import edit_distance_matrix
from repro.align.operations import (
    EditOp,
    OpKind,
    apply_operations,
    edit_operations,
    edit_operations_batch,
    error_operations,
)
from repro.analysis import error_stats
from repro.analysis.error_stats import ErrorStatistics
from repro.core.profile import ErrorProfile
from repro.data.nanopore import make_nanopore_dataset


def scalar_edit_operations(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """Algorithm 2 as a backtrace over the full DP matrix, cell by cell."""
    if reference == copy:
        return [
            EditOp(OpKind.EQUAL, position, base, base)
            for position, base in enumerate(reference)
        ]
    if not copy:
        return [
            EditOp(OpKind.DELETION, position, base, "")
            for position, base in enumerate(reference)
        ]
    if not reference:
        return [EditOp(OpKind.INSERTION, 0, "", base) for base in copy]
    matrix = edit_distance_matrix(reference, copy).tolist()
    result: list[EditOp] = []
    row, column = len(reference), len(copy)
    while row > 0 or column > 0:
        candidates: list[EditOp] = []
        cell = matrix[row][column]
        if row > 0 and column > 0:
            diagonal = matrix[row - 1][column - 1]
            ref_base, copy_base = reference[row - 1], copy[column - 1]
            if ref_base == copy_base:
                if cell == diagonal:
                    candidates.append(
                        EditOp(OpKind.EQUAL, row - 1, ref_base, copy_base)
                    )
            elif cell == diagonal + 1:
                candidates.append(
                    EditOp(OpKind.SUBSTITUTION, row - 1, ref_base, copy_base)
                )
        if row > 0 and cell == matrix[row - 1][column] + 1:
            candidates.append(
                EditOp(OpKind.DELETION, row - 1, reference[row - 1], "")
            )
        if column > 0 and cell == matrix[row][column - 1] + 1:
            candidates.append(EditOp(OpKind.INSERTION, row, "", copy[column - 1]))
        chosen = rng.choice(candidates) if rng is not None else candidates[0]
        result.append(chosen)
        if chosen.kind in (OpKind.EQUAL, OpKind.SUBSTITUTION):
            row -= 1
            column -= 1
        elif chosen.kind is OpKind.DELETION:
            row -= 1
        else:
            column -= 1
    result.reverse()
    return result


def scalar_batch(pairs, rng=None, errors_only=False):
    """Drop-in for :func:`edit_operations_batch` over the scalar reference."""
    for reference, copy in pairs:
        result = scalar_edit_operations(reference, copy, rng)
        yield [op for op in result if op.is_error] if errors_only else result


# ACGT plus non-ACGT symbols, one of them outside ASCII and one outside
# the Basic Multilingual Plane.
SYMBOLS = "ACGTN-é🧬"


def noisy(text: str, seed: int, rate: float) -> str:
    """``text`` through a uniform IDS channel over ``SYMBOLS``."""
    rng = random.Random(seed)
    out: list[str] = []
    for symbol in text:
        draw = rng.random()
        if draw < rate:
            continue
        if draw < 2 * rate:
            out.append(rng.choice(SYMBOLS))
            continue
        out.append(symbol)
        if draw < 3 * rate:
            out.append(rng.choice(SYMBOLS))
    return "".join(out)


strands = st.text(alphabet=st.sampled_from(SYMBOLS), max_size=24)
unrelated_pairs = st.tuples(strands, strands)
noisy_pairs = st.builds(
    lambda reference, seed, rate: (reference, noisy(reference, seed, rate)),
    strands,
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.05, 0.2]),
)


def long_pair(seed: int) -> tuple[str, str]:
    """A 1000-nt strand and a 3%-noisy copy of it."""
    reference = "".join(random.Random(seed).choices("ACGT", k=1000))
    return reference, noisy(reference, seed, 0.03)


long_pairs = st.builds(long_pair, st.integers(0, 2**16))


@st.composite
def batches(draw) -> list[tuple[str, str]]:
    """Pairs of mixed lengths (0, 1, short, now and then 1000) in one
    batch."""
    pairs = draw(st.lists(st.one_of(unrelated_pairs, noisy_pairs), max_size=8))
    if draw(st.integers(0, 15)) == 7:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(long_pairs))
    return pairs


# Budgets from one lane per chunk to the module's own.
chunk_budgets = st.sampled_from([1, 40, 600, operations.CHUNK_CELLS])


class TestKernelMatchesScalarBacktrace:
    @settings(max_examples=60, deadline=None)
    @given(batches(), chunk_budgets)
    def test_deterministic_operations(self, pairs, budget):
        expected = [scalar_edit_operations(r, c) for r, c in pairs]
        with mock.patch.object(operations, "CHUNK_CELLS", budget):
            assert list(edit_operations_batch(pairs)) == expected
            assert list(edit_operations_batch(pairs, errors_only=True)) == [
                [op for op in ops if op.is_error] for ops in expected
            ]

    @settings(max_examples=60, deadline=None)
    @given(batches(), chunk_budgets, st.integers(0, 2**32))
    def test_random_tiebreak_and_stream(self, pairs, budget, seed):
        scalar_rng, kernel_rng = random.Random(seed), random.Random(seed)
        expected = [scalar_edit_operations(r, c, scalar_rng) for r, c in pairs]
        with mock.patch.object(operations, "CHUNK_CELLS", budget):
            assert list(edit_operations_batch(pairs, kernel_rng)) == expected
        assert kernel_rng.getstate() == scalar_rng.getstate()

    @given(noisy_pairs)
    def test_one_pair_calls_match(self, pair):
        reference, copy = pair
        expected = scalar_edit_operations(reference, copy)
        assert edit_operations(reference, copy) == expected
        assert error_operations(reference, copy) == [
            op for op in expected if op.is_error
        ]

    def test_batch_crosses_the_real_chunk_boundary(self):
        """Paper-length pairs, more than one chunk's worth, with equal,
        empty and 1000-nt pairs among them."""
        rng = random.Random(11)
        pairs = []
        for index in range(70):
            reference = "".join(rng.choices("ACGT", k=110))
            pairs.append((reference, noisy(reference, index, 0.04)))
        pairs[5] = (pairs[5][0], pairs[5][0])
        pairs[17] = ("", "ACG")
        pairs[40] = ("ACG", "")
        pairs.insert(30, ("ACGT" * 250, noisy("ACGT" * 250, 3, 0.02)))
        cells = sum((len(r) + 1) * (len(c) + 1) for r, c in pairs)
        assert cells > 2 * operations.CHUNK_CELLS
        scalar_rng, kernel_rng = random.Random(2), random.Random(2)
        assert list(edit_operations_batch(pairs)) == [
            scalar_edit_operations(r, c) for r, c in pairs
        ]
        assert list(edit_operations_batch(pairs, kernel_rng)) == [
            scalar_edit_operations(r, c, scalar_rng) for r, c in pairs
        ]
        assert kernel_rng.getstate() == scalar_rng.getstate()

    def test_results_are_yielded_lazily(self):
        """The kernel reads its input one chunk at a time."""
        consumed = []

        def pairs():
            for index in range(10_000):
                consumed.append(index)
                yield "ACGT" * 30, "ACGA" * 30

        first = next(edit_operations_batch(pairs()))
        assert apply_operations("ACGT" * 30, first) == "ACGA" * 30
        assert len(consumed) < 10_000


class TestNonAsciiSymbols:
    @pytest.mark.parametrize("length", [4, 40])
    def test_non_ascii_copy_aligns(self, length):
        """Small and above the old 1,024-cell fast-path threshold, where
        an ASCII-only encoder used to raise UnicodeEncodeError."""
        reference, copy = "e" * length, "é" * (length + 1)
        result = edit_operations(reference, copy)
        assert result == scalar_edit_operations(reference, copy)
        assert apply_operations(reference, result) == copy
        assert sum(op.is_error for op in result) == length + 1


def _paper_pairs(pool, max_copies):
    return [
        (cluster.reference, copy)
        for cluster in pool
        for copy in cluster.copies[:max_copies]
    ]


class TestFullStatistics:
    """Every field of the tally, not only the aggregate rate the summary
    digests see."""

    @pytest.fixture(scope="class")
    def pool(self):
        return make_nanopore_dataset(n_clusters=12, seed=3)

    @pytest.mark.parametrize("seed", [None, 5])
    def test_tally_pool_equals_per_pair_scalar_tally(self, pool, seed):
        expected = ErrorStatistics()
        scalar_rng = random.Random(seed) if seed is not None else None
        with mock.patch.object(error_stats, "edit_operations_batch", scalar_batch):
            for reference, copy in _paper_pairs(pool, None):
                expected.tally_pair(reference, copy, scalar_rng)
        kernel_rng = random.Random(seed) if seed is not None else None
        actual = ErrorStatistics()
        actual.tally_pool(pool, None, kernel_rng)
        assert actual.pair_count == expected.pair_count > 200
        assert actual.second_order_positions == expected.second_order_positions
        assert actual.long_deletion_lengths == expected.long_deletion_lengths
        assert actual == expected
        if seed is not None:
            assert kernel_rng.getstate() == scalar_rng.getstate()

    def test_parallel_and_sharded_fit_equal_serial(self, pool, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        serial = ErrorProfile.from_pool(pool, 4, workers=1, shards=1)
        sharded = ErrorProfile.from_pool(pool, 4, workers=2, shards=3)
        parallel = ErrorProfile.from_pool(pool, 4, workers=2, shards=1)
        assert sharded.statistics == serial.statistics
        assert parallel.statistics == serial.statistics

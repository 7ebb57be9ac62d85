"""Maximum-likelihood edit-operation extraction (the paper's Algorithm 2).

Given a reference strand and one of its noisy copies it is impossible to
know which exact sequence of channel errors produced the copy; the paper
uses the **edit-distance operations as a proxy** for the most likely error
sequence (Section 3.3.1, Appendix B).  These operation sequences are the
raw material of the data-driven profiler: conditional error probabilities,
long-deletion statistics, spatial histograms and second-order error counts
are all tallied from them.

The paper's Appendix B presents the extraction as an exponential recursion
with random tie-breaking (``ChooseRandomAndInsertOp``).  This module
implements the same semantics as an O(n*m) dynamic program with an explicit
backtrace; ties between optimal paths are broken either deterministically
(preferring substitutions, the maximum-likelihood single-base error) or
randomly when an ``rng`` is supplied, matching Algorithm 2.

The dynamic program is lane-batched (:func:`edit_operations_batch`): many
(reference, copy) pairs run as the lanes of one row recurrence, and each
DP cell keeps only one byte, the set of moves the backtrace may take from
it.  A single pair is the one-lane case.  DESIGN.md §16 explains the
candidate bits and why the tie-break and the random stream match the
scalar backtrace over :func:`repro.align.edit_distance.edit_distance_matrix`.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.align.kernels import _string_codes


class OpKind(Enum):
    """The kinds of edit operations over the IDS channel."""

    EQUAL = "equal"
    SUBSTITUTION = "substitution"
    DELETION = "deletion"
    INSERTION = "insertion"


@dataclass(frozen=True)
class EditOp:
    """One edit operation positioned on the *reference* strand.

    Attributes:
        kind: the operation type.
        reference_position: index into the reference strand.  For an
            insertion this is the index of the reference base *before*
            which the new base appears (``len(reference)`` for an append).
        reference_base: the reference base consumed (empty for insertions).
        copy_base: the base emitted into the copy (empty for deletions).
    """

    kind: OpKind
    reference_position: int
    reference_base: str
    copy_base: str

    @property
    def is_error(self) -> bool:
        """True for every operation except EQUAL."""
        return self.kind is not OpKind.EQUAL

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``del G@12`` or ``sub A->G@3``."""
        if self.kind is OpKind.EQUAL:
            return f"eq {self.reference_base}@{self.reference_position}"
        if self.kind is OpKind.DELETION:
            return f"del {self.reference_base}@{self.reference_position}"
        if self.kind is OpKind.INSERTION:
            return f"ins {self.copy_base}@{self.reference_position}"
        return (
            f"sub {self.reference_base}->{self.copy_base}"
            f"@{self.reference_position}"
        )


# Enum members bound once: a class-attribute lookup on an Enum costs as
# much as building the EditOp, and the backtrace builds one per step.
_EQUAL, _SUBSTITUTION = OpKind.EQUAL, OpKind.SUBSTITUTION
_DELETION, _INSERTION = OpKind.DELETION, OpKind.INSERTION

# Candidate moves of one DP cell, one bit each: up (deletion), diagonal
# (equal base or substitution) and left (insertion); plus the cell's
# mismatch bit, which tells a substitution from an equal base.
_UP, _DIAGONAL, _LEFT, _MISMATCH = 1, 2, 4, 8

#: The candidate moves of each move set, in the scalar backtrace's
#: preference order (diagonal, up, left): the sequence ``rng.choice``
#: draws from, as long as that backtrace's candidate list, so the random
#: stream is the same.
_CANDIDATES = tuple(
    tuple(move for move in (_DIAGONAL, _UP, _LEFT) if moves & move)
    for moves in range(16)
)

#: The preferred move of each move set (deterministic mode).
_PREFERRED = tuple(moves[0] if moves else 0 for moves in _CANDIDATES)

#: Cells (lanes x rows x columns) of candidate bytes in one kernel chunk.
#: Consecutive pairs share a chunk while it has room; a pair larger than
#: the budget gets a chunk of its own.
CHUNK_CELLS = 1 << 19

#: DP rows computed between two whole-block candidate-bit passes.
_ROW_BLOCK = 16

# Symbol codes are Unicode code points, so any ``str`` works; the pads
# lie above the last code point and differ between the two sides.
_REFERENCE_PAD = 0xFFFF_FFFF
_COPY_PAD = 0xFFFF_FFFE


def _candidate_bytes(pairs: list[tuple[str, str]]) -> np.ndarray:
    """The candidate-move byte of every DP cell of every pair.

    Returns a ``(rows, columns, lanes)`` ``uint8`` array over the longest
    reference and copy; lane ``k``'s cell ``(i, j)`` is valid for ``i <=
    len(reference_k)`` and ``j <= len(copy_k)`` because a cell depends
    only on the cells above and to its left.

    The recurrence runs on ``T[i][j] = D[i][j] - i - j`` (``D`` the edit
    distance matrix), which turns the in-row insertion dependency into a
    running minimum: ``T[i] = cummin(min(T[i-1][j],
    T[i-1][j-1] + mismatch - 2))`` with ``T[i][0] = 0``.  The candidate
    tests of the scalar backtrace become equalities between neighbours:
    diagonal ``T[i][j] == T[i-1][j-1] + mismatch - 2``, deletion
    ``T[i][j] == T[i-1][j]`` and insertion ``T[i][j] == T[i][j-1]``.
    """
    lanes = len(pairs)
    rows = max(len(reference) for reference, _ in pairs) + 1
    columns = max(len(copy) for _, copy in pairs) + 1
    reference_codes = np.full((rows - 1, lanes), _REFERENCE_PAD, np.uint32)
    copy_codes = np.full((columns - 1, lanes), _COPY_PAD, np.uint32)
    for lane, (reference, copy) in enumerate(pairs):
        reference_codes[: len(reference), lane] = _string_codes(reference)
        copy_codes[: len(copy), lane] = _string_codes(copy)
    # -2 * min(rows, columns) <= T <= 0.
    dtype = np.int16 if min(rows, columns) < 2**14 else np.int32
    candidates = np.empty((rows, columns, lanes), np.uint8)
    candidates[0] = _LEFT
    candidates[0, 0] = 0
    # block[0] is the DP row above the block; column 0 stays 0.
    block = np.zeros((_ROW_BLOCK + 1, columns, lanes), dtype)
    inner_shape = (_ROW_BLOCK, columns - 1, lanes)
    mismatch_block = np.empty(inner_shape, np.bool_)
    step_block = np.empty(inner_shape, dtype)
    test_block = np.empty(inner_shape, np.bool_)
    for start in range(1, rows, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, rows)
        height = stop - start
        mismatch, step, test = (
            mismatch_block[:height], step_block[:height], test_block[:height]
        )
        reference_rows = reference_codes[start - 1 : stop - 1, None]
        np.not_equal(copy_codes, reference_rows, out=mismatch)
        np.subtract(mismatch, 2, out=step, dtype=dtype)
        for offset in range(height):
            above, current = block[offset], block[offset + 1]
            np.add(above[:-1], step[offset], out=current[1:])
            np.minimum(above[1:], current[1:], out=current[1:])
            np.minimum.accumulate(current, axis=0, out=current)
        # The block's candidate bytes, from whole-block comparisons.
        above, current = block[:height], block[1 : height + 1]
        cells = candidates[start:stop]
        np.equal(current, above, out=cells.view(np.bool_))  # _UP is 1
        inner = cells[:, 1:]
        np.add(above[:, :-1], step, out=step)  # the diagonal's value
        np.equal(current[:, 1:], step, out=test)
        inner += test.view(np.uint8) * np.uint8(_DIAGONAL)
        np.equal(current[:, 1:], current[:, :-1], out=test)
        inner += test.view(np.uint8) * np.uint8(_LEFT)
        inner += mismatch.view(np.uint8) * np.uint8(_MISMATCH)
        block[0] = block[height]
    return candidates


def _trace(
    candidates: memoryview,
    lane: int,
    lanes: int,
    columns: int,
    reference: str,
    copy: str,
    rng: random.Random | None,
    errors_only: bool,
) -> list[EditOp]:
    """Walk one lane's candidate bytes back from its corner.

    Deterministic mode takes the first candidate move in the order
    diagonal, deletion, insertion; ``rng`` mode draws among the same
    moves in the same order, exactly as the scalar backtrace does.
    """
    row, column = len(reference), len(copy)
    row_step = columns * lanes
    diagonal_step = row_step + lanes
    position = (row * columns + column) * lanes + lane
    operations: list[EditOp] = []
    append = operations.append
    while row or column:
        moves = candidates[position]
        if rng is None:
            move = _PREFERRED[moves]
        else:
            move = rng.choice(_CANDIDATES[moves])
        if move == _DIAGONAL:
            row -= 1
            column -= 1
            position -= diagonal_step
            if moves & _MISMATCH:
                append(EditOp(_SUBSTITUTION, row, reference[row], copy[column]))
            elif not errors_only:
                append(EditOp(_EQUAL, row, reference[row], copy[column]))
        elif move == _UP:
            row -= 1
            position -= row_step
            append(EditOp(_DELETION, row, reference[row], ""))
        else:
            column -= 1
            position -= lanes
            append(EditOp(_INSERTION, row, "", copy[column]))
    operations.reverse()
    return operations


def _forced_operations(
    reference: str, copy: str, errors_only: bool
) -> list[EditOp]:
    """The operations of a pair whose backtrace has no choice.

    When the distance is trivially 0 (equal strings) or trivially
    len(other) (one side empty), every backtrace candidate set is a
    singleton, so tie-breaking cannot diverge: these pairs skip the DP
    and consume no randomness.  Identical copies are the common case
    when profiling low-noise pools.
    """
    if reference == copy:
        if errors_only:
            return []
        return [
            EditOp(_EQUAL, position, base, base)
            for position, base in enumerate(reference)
        ]
    if not copy:
        return [
            EditOp(_DELETION, position, base, "")
            for position, base in enumerate(reference)
        ]
    return [EditOp(_INSERTION, 0, "", base) for base in copy]


def edit_operations_batch(
    pairs: Iterable[tuple[str, str]],
    rng: random.Random | None = None,
    errors_only: bool = False,
) -> Iterator[list[EditOp]]:
    """:func:`edit_operations` of every ``(reference, copy)`` pair, in order.

    Pairs are aligned as the lanes of one DP, :data:`CHUNK_CELLS` cells at
    a time, and each pair's backtrace then walks its lane.  Results are
    yielded lazily, one list per pair, and with ``rng`` the draws happen
    in pair order, so the operations and the final ``rng`` state equal
    those of calling :func:`edit_operations` on each pair in turn.
    ``errors_only`` drops the EQUAL operations (:func:`error_operations`).
    """
    # A chunk: its pairs in order, each with its lane or None when forced.
    pending: list[tuple[str, str, int | None]] = []
    lanes: list[tuple[str, str]] = []
    rows = columns = 0
    for reference, copy in pairs:
        if reference == copy or not reference or not copy:
            pending.append((reference, copy, None))
            continue
        rows = max(rows, len(reference) + 1)
        columns = max(columns, len(copy) + 1)
        if lanes and (len(lanes) + 1) * rows * columns > CHUNK_CELLS:
            yield from _flush(pending, lanes, rng, errors_only)
            pending, lanes = [], []
            rows, columns = len(reference) + 1, len(copy) + 1
        pending.append((reference, copy, len(lanes)))
        lanes.append((reference, copy))
    yield from _flush(pending, lanes, rng, errors_only)


def _flush(
    pending: list[tuple[str, str, int | None]],
    lanes: list[tuple[str, str]],
    rng: random.Random | None,
    errors_only: bool,
) -> Iterator[list[EditOp]]:
    """Run one chunk's DP and yield its pairs' operations in order."""
    if lanes:
        candidates = _candidate_bytes(lanes)
        columns = candidates.shape[1]
        flat = memoryview(candidates.reshape(-1))
    for reference, copy, lane in pending:
        if lane is None:
            yield _forced_operations(reference, copy, errors_only)
        else:
            yield _trace(
                flat, lane, len(lanes), columns, reference, copy, rng, errors_only
            )


def edit_operations(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """Extract a minimal edit-operation sequence turning ``reference`` into
    ``copy``.

    This is Algorithm 2 (Appendix B) implemented as a DP backtrace.  When
    several operation sequences achieve the minimum edit distance, the
    paper chooses among them randomly; pass ``rng`` for that behaviour, or
    leave it None for a deterministic maximum-likelihood preference order
    (match/substitution, then deletion, then insertion — single-base
    substitutions and deletions being the most common channel errors).

    The returned list is ordered by reference position; applying the
    operations left to right reproduces ``copy`` exactly (verified by the
    test suite's round-trip property).  The one-pair case of
    :func:`edit_operations_batch`.
    """
    return next(edit_operations_batch([(reference, copy)], rng))


def apply_operations(reference: str, operations: list[EditOp]) -> str:
    """Replay an operation sequence against ``reference``.

    Used to verify round-trips:
    ``apply_operations(r, edit_operations(r, c)) == c``.
    """
    output: list[str] = []
    cursor = 0
    for operation in operations:
        if operation.kind is OpKind.INSERTION:
            if operation.reference_position < cursor:
                raise ValueError("operations are not ordered by reference position")
            output.append(reference[cursor : operation.reference_position])
            cursor = operation.reference_position
            output.append(operation.copy_base)
            continue
        if operation.reference_position != cursor:
            if operation.reference_position < cursor:
                raise ValueError("operations are not ordered by reference position")
            output.append(reference[cursor : operation.reference_position])
            cursor = operation.reference_position
        if operation.kind in (OpKind.EQUAL, OpKind.SUBSTITUTION):
            output.append(operation.copy_base)
        # DELETION emits nothing.
        cursor += 1
    output.append(reference[cursor:])
    return "".join(output)


def error_operations(
    reference: str, copy: str, rng: random.Random | None = None
) -> list[EditOp]:
    """Only the non-EQUAL operations of :func:`edit_operations`."""
    return next(edit_operations_batch([(reference, copy)], rng, errors_only=True))


def deletion_runs(operations: list[EditOp]) -> list[tuple[int, int]]:
    """Group consecutive deletions into runs.

    Long deletions — runs of length >= 2 — are an explicit channel
    parameter (Section 3.3.1: p_ld = 0.33%, mean length 2.17).

    Returns:
        ``(start_reference_position, run_length)`` for every maximal run of
        DELETION operations at consecutive reference positions.
    """
    runs: list[tuple[int, int]] = []
    run_start: int | None = None
    run_length = 0
    previous_position = -2
    for operation in operations:
        if operation.kind is OpKind.DELETION:
            if (
                run_start is not None
                and operation.reference_position == previous_position + 1
            ):
                run_length += 1
            else:
                if run_start is not None:
                    runs.append((run_start, run_length))
                run_start = operation.reference_position
                run_length = 1
            previous_position = operation.reference_position
        else:
            if run_start is not None:
                runs.append((run_start, run_length))
                run_start = None
                run_length = 0
            previous_position = -2
    if run_start is not None:
        runs.append((run_start, run_length))
    return runs

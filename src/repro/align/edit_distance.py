"""Levenshtein edit distance over DNA strands.

Edit distance underpins three subsystems: clustering (reads are grouped by
edit-distance similarity, Section 1.1.2), reconstruction-quality metrics
(normalised edit distance, Section 3.1), and the maximum-likelihood
extraction of error sequences from reference/copy pairs (Appendix B,
implemented in :mod:`repro.align.operations`).

Distance-only queries run the Myers bit-parallel kernel of
:mod:`repro.align.kernels`, which is bit-identical to the pure-Python
reference DPs kept there for the tests.  The backtrace in :mod:`repro.align.operations`
runs its own lane-batched DP that keeps one candidate-move byte per
cell, not the matrix; the full matrix here is the plain reference DP
the tests check that kernel against.
"""

from __future__ import annotations

import numpy as np

from repro.align import kernels


def edit_distance(first: str, second: str) -> int:
    """Levenshtein distance between two strings (unit costs).

    O(max(len)/64 * min(len)) word-time on the bit-parallel kernel.
    """
    if first == second:
        return 0
    if not first or not second:
        # One side empty: the length-difference lower bound is achieved
        # exactly (pure insertions/deletions), no DP needed.
        return abs(len(first) - len(second))
    return kernels.edit_distance_kernel(first, second)


def edit_distance_banded(first: str, second: str, band: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``band``.

    If the true distance exceeds ``band`` the result is a lower bound of
    ``band + 1`` ("at least this far apart"), which is all clustering needs
    to reject a pair quickly.  The length-difference lower bound
    short-circuits before any kernel runs; the bit-parallel kernel
    early-exits the moment the band is provably exceeded.
    """
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if abs(len(first) - len(second)) > band:
        return band + 1
    if first == second:
        return 0
    return kernels.banded_distance_kernel(first, second, band)


def normalized_edit_distance(first: str, second: str) -> float:
    """Edit distance divided by the longer string's length (0.0 for two
    empty strings).

    One of the candidate simulator-evaluation metrics of Section 3.1.
    """
    longest = max(len(first), len(second))
    if longest == 0:
        return 0.0
    return edit_distance(first, second) / longest


def edit_distance_matrix(first: str, second: str) -> np.ndarray:
    """Full (len(first)+1) x (len(second)+1) DP matrix as ``int32`` numpy.

    ``matrix[i][j]`` is the distance between ``first[:i]`` and
    ``second[:j]``.  A plain pure-Python DP over any symbols: the
    reference the lane-batched backtrace kernel of
    :mod:`repro.align.operations` is tested against.
    """
    rows, columns = len(first) + 1, len(second) + 1
    matrix = [[0] * columns for _ in range(rows)]
    for row in range(rows):
        matrix[row][0] = row
    for column in range(columns):
        matrix[0][column] = column
    for row in range(1, rows):
        first_char = first[row - 1]
        matrix_row = matrix[row]
        matrix_above = matrix[row - 1]
        for column in range(1, columns):
            substitution_cost = 0 if first_char == second[column - 1] else 1
            matrix_row[column] = min(
                matrix_above[column] + 1,
                matrix_row[column - 1] + 1,
                matrix_above[column - 1] + substitution_cost,
            )
    return np.asarray(matrix, dtype=np.int32)

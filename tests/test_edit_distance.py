"""Unit and property tests for repro.align.edit_distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align.edit_distance import (
    edit_distance,
    edit_distance_banded,
    edit_distance_matrix,
    normalized_edit_distance,
)

dna = st.text(alphabet="ACGT", max_size=40)


def reference_edit_distance(first: str, second: str) -> int:
    """Straightforward quadratic reference implementation."""
    rows, columns = len(first) + 1, len(second) + 1
    table = [[0] * columns for _ in range(rows)]
    for row in range(rows):
        table[row][0] = row
    for column in range(columns):
        table[0][column] = column
    for row in range(1, rows):
        for column in range(1, columns):
            cost = 0 if first[row - 1] == second[column - 1] else 1
            table[row][column] = min(
                table[row - 1][column] + 1,
                table[row][column - 1] + 1,
                table[row - 1][column - 1] + cost,
            )
    return table[-1][-1]


class TestEditDistance:
    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("", "", 0),
            ("A", "", 1),
            ("", "ACG", 3),
            ("ACGT", "ACGT", 0),
            ("ACGT", "AGT", 1),
            ("ACGT", "TGCA", 4),
            ("AAAA", "TTTT", 4),
            ("GATTACA", "GCATGCT", 4),
        ],
    )
    def test_known_values(self, first, second, expected):
        assert edit_distance(first, second) == expected

    @given(dna, dna)
    def test_matches_reference(self, first, second):
        assert edit_distance(first, second) == reference_edit_distance(
            first, second
        )

    @given(dna, dna)
    def test_symmetry(self, first, second):
        assert edit_distance(first, second) == edit_distance(second, first)

    @given(dna)
    def test_identity(self, strand):
        assert edit_distance(strand, strand) == 0

    @given(dna, dna, dna)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(dna, dna)
    def test_bounded_by_max_length(self, first, second):
        assert edit_distance(first, second) <= max(len(first), len(second))


class TestBanded:
    @given(dna, dna)
    def test_wide_band_equals_exact(self, first, second):
        band = max(len(first), len(second))
        assert edit_distance_banded(first, second, band) == edit_distance(
            first, second
        )

    @given(dna, dna, st.integers(0, 10))
    def test_band_result_is_exact_or_band_plus_one(self, first, second, band):
        result = edit_distance_banded(first, second, band)
        exact = edit_distance(first, second)
        if exact <= band:
            assert result == exact
        else:
            assert result == band + 1

    def test_length_gap_exceeding_band_shortcuts(self):
        assert edit_distance_banded("A" * 30, "A", 5) == 6

    def test_negative_band_raises(self):
        with pytest.raises(ValueError):
            edit_distance_banded("A", "C", -1)


class TestNormalized:
    def test_empty_pair_is_zero(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_disjoint_is_one(self):
        assert normalized_edit_distance("AAAA", "TTTT") == 1.0

    @given(dna, dna)
    def test_in_unit_interval(self, first, second):
        assert 0.0 <= normalized_edit_distance(first, second) <= 1.0


class TestMatrices:
    def test_matrix_corner_is_distance(self):
        matrix = edit_distance_matrix("ACGT", "AGT")
        assert matrix[4][3] == 1

    def test_large_matrix_corner_is_distance(self):
        matrix = edit_distance_matrix("ACGT" * 20, "ACGA" * 20)
        assert isinstance(matrix, np.ndarray)
        assert matrix[-1][-1] == edit_distance("ACGT" * 20, "ACGA" * 20)

    @given(dna, dna)
    def test_return_type_is_uniform_across_paths(self, first, second):
        """Every size returns the same type: callers once saw ``list``
        below a 1024-cell threshold and ``np.ndarray`` above it, diverging
        on mutation/``len``/equality semantics."""
        matrix = edit_distance_matrix(first, second)
        assert isinstance(matrix, np.ndarray)
        assert matrix.dtype == np.int32
        assert matrix.shape == (len(first) + 1, len(second) + 1)

"""Differential and dispatch tests for the alignment kernel layer.

The contract under test: **every** path of :mod:`repro.align.kernels`
returns bit-identical results to the pure-Python reference DPs — exact
distances, banded lower bounds, gestalt matching blocks, q-gram
signatures, and clustering assignments.  Inputs come from the shared
degenerate-input strategies of :mod:`tests.differential` (empty strings,
lengths 1/109/110/111/1000, non-ACGT symbols) plus seeded IDS-noised
paper-shaped pairs.  Each side of a size-based choice is forced by
patching its module constant: ``_BATCH_MIN_READS`` (1 forces the batched
sweep, ``sys.maxsize`` the pairwise kernel) and ``_LCS_NUMPY_MIN_CELLS``
(0 forces the NumPy rows, ``sys.maxsize`` the Python recursion).
"""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest
from hypothesis import find
from hypothesis import strategies as st

from repro.align import gestalt, kernels
from repro.align.edit_distance import edit_distance, edit_distance_banded
from repro.align.gestalt import clear_block_cache, matching_blocks
from repro.align.kernels import CompiledPattern, edit_distances_one_to_many
from repro.align.operations import OpKind, apply_operations, edit_operations
from repro.cluster.greedy import GreedyClusterer
from repro.cluster.qgram_index import (
    EMPTY_SIGNATURE,
    QGramIndex,
    _stable_hash,
    qgrams,
)
from tests.differential import (
    EDGE_LENGTHS,
    SYMBOLS,
    assert_differential,
    assert_same,
    pairs,
    patched,
    strands,
)

BANDS = (0, 1, 3, 25, 1000)

#: ``_BATCH_MIN_READS`` per forced one-vs-many path.
BATCH_PATHS = {"bitparallel": sys.maxsize, "batched": 1}


def _strand(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(length))


def _ids_noised(rng: random.Random, reference: str, rate: float = 0.06) -> str:
    """Insertion/deletion/substitution noise at the paper's error scale."""
    out: list[str] = []
    for base in reference:
        draw = rng.random()
        if draw < rate / 3:
            continue  # deletion
        if draw < 2 * rate / 3:
            out.append(rng.choice("ACGT"))  # substitution
            continue
        out.append(base)
        if draw < rate:
            out.append(rng.choice("ACGT"))  # insertion
    return "".join(out)


def _on_batch_path(path: str, fn):
    return patched(fn, kernels, "_BATCH_MIN_READS", BATCH_PATHS[path])


def _banded_contract(first: str, second: str, band: int) -> int:
    """What every banded path must return: min(true distance, band + 1)."""
    return min(kernels._python_distance(first, second), band + 1)


def _python_banded(first: str, second: str, band: int) -> int:
    """The reference banded DP behind the callers' length short-circuit."""
    if abs(len(first) - len(second)) > band:
        return band + 1
    return kernels._python_banded(first, second, band)


banded_inputs = st.tuples(pairs(), st.sampled_from(BANDS)).map(
    lambda drawn: (*drawn[0], drawn[1])
)


@st.composite
def one_to_many_inputs(draw) -> tuple[str, list[str], int | None]:
    """A reference, a batch of reads around it, and an optional band."""
    batch = draw(st.lists(pairs(), max_size=6))
    reference = draw(strands())
    reads = [second for _, second in batch] + ["", reference]
    band = draw(st.one_of(st.none(), st.sampled_from(BANDS)))
    return reference, reads, band


def _reference_one_to_many(reference, reads, band):
    distances = [kernels._python_distance(reference, read) for read in reads]
    if band is None:
        return distances
    return [min(distance, band + 1) for distance in distances]


class TestDistanceEquivalence:
    def test_corpus_is_large_and_varied(self):
        """The shared strategies reach every degenerate shape the
        differential tests rely on."""
        for length in EDGE_LENGTHS:
            find(strands(), lambda strand, length=length: len(strand) == length)
        for symbol in SYMBOLS:
            find(strands(), lambda strand, symbol=symbol: symbol in strand)
        find(pairs(), lambda pair: pair[0] == pair[1] != "")
        find(pairs(), lambda pair: len(pair[0]) > 64 and pair[0] != pair[1])

    @pytest.mark.parametrize("path", ["auto", "bitparallel", "batched"])
    def test_edit_distance_matches_reference(self, path):
        """``auto`` is the public entry point; the other two force one
        kernel each."""
        fast = {
            "auto": edit_distance,
            "bitparallel": kernels._bitparallel_distance,
            "batched": _on_batch_path(
                "batched", lambda a, b: edit_distances_one_to_many(a, [b])[0]
            ),
        }[path]
        assert_differential(kernels._python_distance, fast, pairs())

    @pytest.mark.parametrize("path", ["python", "bitparallel", "batched"])
    def test_banded_matches_reference_bound(self, path):
        """Banded result is exactly min(true distance, band + 1): the true
        distance when within the band, the lower bound band + 1 the moment
        the band is provably exceeded.  ``python`` checks the reference
        banded DP itself against that contract."""
        fast = {
            "python": _python_banded,
            "bitparallel": edit_distance_banded,
            "batched": _on_batch_path(
                "batched",
                lambda a, b, band: edit_distances_one_to_many(a, [b], band)[0],
            ),
        }[path]
        assert_differential(_banded_contract, fast, banded_inputs)

    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    def test_one_to_many_matches_pairwise(self, path):
        assert_differential(
            _reference_one_to_many,
            _on_batch_path(path, edit_distances_one_to_many),
            one_to_many_inputs(),
            max_examples=40,
        )

    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    def test_compiled_pattern_matches_functions(self, path):
        """One compiled pattern against many texts: pairwise methods on
        ``bitparallel``, one-read batches on ``batched``."""
        rng = random.Random(11)
        pattern = CompiledPattern(_strand(rng, 80))

        def compiled(other, band):
            if path == "bitparallel":
                return pattern.distance(other), pattern.banded_distance(other, band)
            return (
                pattern.distances([other])[0],
                pattern.banded_distances([other], band)[0],
            )

        def reference(other, band):
            return (
                kernels._python_distance(pattern.text, other),
                _banded_contract(pattern.text, other, band),
            )

        assert_differential(
            reference,
            _on_batch_path(path, compiled),
            st.tuples(strands(), st.sampled_from(BANDS)),
        )


class TestGestaltEquivalence:
    @staticmethod
    def _blocks(first, second):
        """An uncached decomposition (the LRU would hide a path switch)."""
        return list(gestalt._matching_blocks_cached.__wrapped__(first, second))

    @pytest.mark.parametrize("path", ["auto", "numpy"])
    def test_matching_blocks_match_python_reference(self, path):
        """``auto`` splits regions by size; ``numpy`` forces the NumPy rows
        onto every region.  The reference runs the Python recursion on
        every region."""
        reference = patched(
            self._blocks, kernels, "_LCS_NUMPY_MIN_CELLS", sys.maxsize
        )
        fast = self._blocks
        if path == "numpy":
            fast = patched(self._blocks, kernels, "_LCS_NUMPY_MIN_CELLS", 0)
        assert_differential(reference, fast, pairs(), max_examples=40)

    def test_long_pair_blocks_match(self):
        rng = random.Random(3)
        first = _strand(rng, 1000)
        second = _ids_noised(rng, first)
        clear_block_cache()
        assert_same(
            patched(self._blocks, kernels, "_LCS_NUMPY_MIN_CELLS", sys.maxsize),
            matching_blocks,
            first,
            second,
        )


def _reference_signature(sequence: str, q: int = 8, bands: int = 8) -> list[int]:
    """The scalar min-hash: FNV-1a over every q-gram, one min per band."""
    if not sequence:
        return [EMPTY_SIGNATURE] * bands
    grams = qgrams(sequence, q)
    return [min(_stable_hash(gram, band) for gram in grams) for band in range(bands)]


class TestClusteringIdentity:
    @pytest.fixture(scope="class")
    def reads(self) -> list[str]:
        rng = random.Random(5)
        references = [_strand(rng, 110) for _ in range(25)]
        reads = [
            _ids_noised(rng, reference)
            for reference in references
            for _ in range(6)
        ]
        rng.shuffle(reads)
        return reads

    def test_assignments_identical_across_backends(self, reads):
        """The greedy clusterer with the batched sweep forced on, forced
        off, and left to its size-based choice."""
        results = {}
        for path, threshold in {
            **BATCH_PATHS,
            "auto": kernels._BATCH_MIN_READS,
        }.items():
            with mock.patch.object(kernels, "_BATCH_MIN_READS", threshold):
                results[path] = GreedyClusterer().cluster(reads)
        baseline = results["bitparallel"]
        for path, result in results.items():
            assert result.assignments == baseline.assignments, path
            assert result.representatives == baseline.representatives, path
            assert result.comparisons == baseline.comparisons, path

    def test_qgram_signatures_identical_across_backends(self):
        index = QGramIndex(q=8, bands=8)
        assert_differential(
            _reference_signature,
            index.signature,
            st.tuples(st.one_of(strands(), st.sampled_from(["", "ACG", "A" * 8]))),
        )

    def test_pool_signatures_match_per_read(self):
        """The pool-wide batched FNV-1a sweep is bit-identical to the
        scalar min-hash of each read, at edge lengths and symbols."""
        index = QGramIndex(q=8, bands=8)
        assert_differential(
            lambda pool: [_reference_signature(sequence) for sequence in pool],
            index.signatures,
            st.tuples(st.lists(strands(), max_size=12)),
            max_examples=40,
        )


class TestBatchedBackendEquivalence:
    """The batched uint64 sweep against the reference DP, on seeded
    batches whose lengths straddle the word boundary and the paper's
    strand length, over N, lowercase, and astral-plane alphabets, with
    the degenerate bands 0 and >= max(len)."""

    LENGTHS = (0, 1, 109, 110, 111, 500)
    ALPHABETS = ("ACGT", "ACGTN", "acgt", "Aé世\U0001F600T")

    @staticmethod
    def _noised(rng: random.Random, reference: str, alphabet: str) -> str:
        out = list(reference)
        for _ in range(rng.randint(0, 12)):
            if not out:
                break
            draw, position = rng.random(), rng.randrange(len(out))
            if draw < 0.34:
                out[position] = rng.choice(alphabet)
            elif draw < 0.67:
                del out[position]
            else:
                out.insert(position, rng.choice(alphabet))
        return "".join(out)

    def _batch(
        self, rng: random.Random, reference: str, alphabet: str
    ) -> list[str]:
        reads = ["", reference]
        reads += [self._noised(rng, reference, alphabet) for _ in range(10)]
        reads += [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 130)))
            for _ in range(4)
        ]
        return reads

    @mock.patch.object(kernels, "_BATCH_MIN_READS", 1)
    def test_batched_matches_reference_dp(self):
        rng = random.Random(20260808)
        for length in self.LENGTHS:
            for alphabet in self.ALPHABETS:
                reference = "".join(
                    rng.choice(alphabet) for _ in range(length)
                )
                reads = self._batch(rng, reference, alphabet)
                expected = [
                    kernels._python_distance(reference, read) for read in reads
                ]
                pattern = CompiledPattern(reference)
                assert pattern.distances(reads) == expected, (length, alphabet)
                for band in BANDS:
                    assert pattern.banded_distances(reads, band) == [
                        min(distance, band + 1) for distance in expected
                    ], (length, alphabet, band)

    @mock.patch.object(kernels, "_BATCH_MIN_READS", 1)
    def test_one_to_many_empty_batch(self):
        assert edit_distances_one_to_many("ACGT", []) == []
        assert edit_distances_one_to_many("ACGT", [], band=3) == []

    def test_auto_threshold_dispatch(self, monkeypatch):
        """Batches of at least ``_BATCH_MIN_READS`` reads run the sweep;
        one read fewer loops the pairwise kernel."""
        swept = []
        real = kernels._batched_distances

        def spy(packed, reads, band):
            swept.append(len(reads))
            return real(packed, reads, band)

        monkeypatch.setattr(kernels, "_batched_distances", spy)
        reads = ["ACGA"] * kernels._BATCH_MIN_READS
        pattern = CompiledPattern("ACGT")
        assert pattern.distances(reads) == [1] * len(reads)
        assert pattern.banded_distances(reads[1:], 2) == [1] * (len(reads) - 1)
        assert swept == [kernels._BATCH_MIN_READS]

    def test_auto_large_batch_matches_reference(self):
        rng = random.Random(31)
        reference = _strand(rng, 110)
        reads = [_ids_noised(rng, reference) for _ in range(kernels._BATCH_MIN_READS + 5)]
        expected = [kernels._python_distance(reference, read) for read in reads]
        assert edit_distances_one_to_many(reference, reads) == expected
        assert edit_distances_one_to_many(reference, reads, band=25) == [
            min(distance, 26) for distance in expected
        ]


class TestFastExits:
    def test_empty_side_returns_length_difference(self):
        assert edit_distance("", "ACGTACGT") == 8
        assert edit_distance("ACGT", "") == 4
        assert edit_distance("", "") == 0

    def test_equal_strings_skip_kernel(self, monkeypatch):
        def explode(*_args, **_kwargs):  # pragma: no cover - fails the test
            raise AssertionError("kernel must not run on a fast-exit pair")

        monkeypatch.setattr(kernels, "edit_distance_kernel", explode)
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("", "ACGT") == 4

    def test_operations_equal_strings_all_equal_ops(self):
        rng = random.Random(0)
        for use_rng in (None, rng):
            operations = edit_operations("ACGT", "ACGT", use_rng)
            assert [op.kind for op in operations] == [OpKind.EQUAL] * 4
            assert apply_operations("ACGT", operations) == "ACGT"

    def test_operations_empty_copy_all_deletions(self):
        operations = edit_operations("ACG", "")
        assert [op.kind for op in operations] == [OpKind.DELETION] * 3
        assert apply_operations("ACG", operations) == ""

    def test_operations_empty_reference_all_insertions(self):
        operations = edit_operations("", "ACG")
        assert [op.kind for op in operations] == [OpKind.INSERTION] * 3
        assert apply_operations("", operations) == "ACG"


class TestMeanReconstructionDistance:
    def test_mean_over_pairs(self):
        from repro.metrics import mean_reconstruction_edit_distance

        assert mean_reconstruction_edit_distance(
            ["ACGT", "AAAA"], ["ACGT", "AATA"]
        ) == pytest.approx(0.5)

    def test_empty_input_is_zero(self):
        from repro.metrics import mean_reconstruction_edit_distance

        assert mean_reconstruction_edit_distance([], []) == 0.0

    def test_length_mismatch_raises(self):
        from repro.metrics import mean_reconstruction_edit_distance

        with pytest.raises(ValueError, match="1 references but 2"):
            mean_reconstruction_edit_distance(["A"], ["A", "C"])

    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    def test_identical_across_backends(self, path):
        from repro.metrics import mean_reconstruction_edit_distance

        rng = random.Random(17)
        references = [_strand(rng, 110) for _ in range(10)]
        estimates = [_ids_noised(rng, reference) for reference in references]
        assert_same(
            lambda refs, ests: sum(
                kernels._python_distance(r, e) for r, e in zip(refs, ests)
            )
            / len(refs),
            _on_batch_path(path, mean_reconstruction_edit_distance),
            references,
            estimates,
        )


class TestBlockMemoisation:
    def test_same_pair_computes_blocks_once(self, monkeypatch):
        clear_block_cache()
        calls = {"n": 0}
        real = kernels.longest_common_substring

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(kernels, "longest_common_substring", counting)
        first = matching_blocks("WIKIMEDIA", "WIKIMANIA")
        after_first = calls["n"]
        assert after_first > 0
        second = matching_blocks("WIKIMEDIA", "WIKIMANIA")
        assert calls["n"] == after_first  # served from the LRU
        assert second == first
        assert second is not first  # fresh list, safe to mutate

    def test_clear_block_cache_forces_recompute(self, monkeypatch):
        matching_blocks("ACGTACGT", "ACGGACGT")
        clear_block_cache()
        calls = {"n": 0}
        real = kernels.longest_common_substring

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(kernels, "longest_common_substring", counting)
        matching_blocks("ACGTACGT", "ACGGACGT")
        assert calls["n"] > 0


class TestBackendConfiguration:
    def test_default_is_auto(self):
        """The only backend name left; benchmark fingerprints stamp it."""
        assert kernels.align_backend() == "auto"

"""Differential tests of the vectorised channel sweep.

The sweep must be byte-identical to the reference loop — same pools,
same copies, and the same final ``random.Random`` state (the draw-order
contract) — across every model stage (bursts, second-order errors, long
deletions, spatial weights, homopolymer scaling), both RNG modes (serial
stream and ``per_cluster_seeds``), and degenerate inputs (empty
references, coverage 0, all-homopolymer strands, burst-heavy models,
the shared edge lengths and non-ACGT symbols of
:mod:`tests.differential`).  Each side is forced by patching
``repro.core.channel.AUTO_MIN_DRAWS``: ``sys.maxsize`` keeps every call
on the reference loop (``python``), 0 sends every bulk-capable call
through the sweep (``vectorised``).  The size-based dispatch itself is
covered at the end.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import strategies as st

from repro.core import channel as channel_module
from repro.core.alphabet import homopolymer_mask, random_strand
from repro.core.channel import AUTO_MIN_DRAWS, Channel
from repro.core.channel_backend import (
    channel_backend,
    homopolymer_mask_fast,
    rng_supports_bulk,
)
from repro.core.coverage import ConstantCoverage, NegativeBinomialCoverage
from repro.core.errors import ErrorModel
from repro.core.profile import ErrorProfile, SimulatorStage
from repro.core.simulator import Simulator
from repro.core.strand import StrandPool
from repro.data.nanopore import (
    ground_truth_model,
    iter_nanopore_clusters,
    make_nanopore_dataset,
)
from tests.differential import (
    SYMBOLS,
    assert_differential,
    assert_same,
    patched,
    strands,
)

MAIN_SEED = 20260808

#: ``AUTO_MIN_DRAWS`` per forced path.
PATHS = {"python": sys.maxsize, "vectorised": 0}


def differential(run, *args) -> None:
    """``run(*args)`` gives the same outcome on both paths."""
    assert_same(*_both_paths(run), *args)


def _both_paths(run):
    return tuple(
        patched(run, channel_module, "AUTO_MIN_DRAWS", PATHS[path])
        for path in ("python", "vectorised")
    )


def _ground(**overrides) -> ErrorModel:
    return dataclasses.replace(ground_truth_model(), **overrides)


#: One model per channel stage/regime the walk special-cases.
MODELS = {
    "ground_truth": ground_truth_model(),
    "naive": ErrorModel.naive(0.006, 0.010, 0.019),
    "zero_rate": ErrorModel.naive(0.0, 0.0, 0.0),
    "high_rate": ErrorModel.naive(0.15, 0.20, 0.25),
    "burst_heavy": _ground(burst_rate=0.05),
    "long_deletion_heavy": _ground(long_deletion_rate=0.05),
    "homopolymer_factor_zero": _ground(homopolymer_factor=0.0),
    "no_homopolymer_scaling": _ground(homopolymer_factor=1.0),
}


def _flatten(pool: StrandPool) -> list[tuple[str, list[str]]]:
    return [(cluster.reference, list(cluster.copies)) for cluster in pool]


def _references(rng: random.Random) -> list[str]:
    """Degenerate shapes beside paper-shaped strands: empty, length-1,
    all-homopolymer, and mixed lengths straddling the chunk maths."""
    strands = ["", "A", "A" * 110, "ACGT" * 30]
    strands += [random_strand(length, rng) for length in (5, 110, 110, 333)]
    return strands


class TestBackendEquivalence:
    """Pools and final RNG states must match bit for bit."""

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_transmit_pool_identical(self, model_name):
        def run(model):
            rng = random.Random(MAIN_SEED)
            references = _references(random.Random(MAIN_SEED + 1))
            pool = Channel(model, rng).transmit_pool(
                references, NegativeBinomialCoverage(8.0, 2.0)
            )
            return _flatten(pool), rng.getstate()

        differential(run, MODELS[model_name])

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_transmit_many_identical(self, model_name):
        def run(model):
            rng = random.Random(MAIN_SEED + 2)
            channel = Channel(model, rng)
            copies = [
                channel.transmit_many(reference, 25)
                for reference in _references(random.Random(MAIN_SEED + 3))
            ]
            return copies, rng.getstate()

        differential(run, MODELS[model_name])

    def test_fuzzed_references_identical(self):
        """Edge lengths, coverages 0/1/164, and non-ACGT symbols (which
        must fail the same way on both paths)."""

        def run(references, coverage, seed):
            rng = random.Random(seed)
            channel = Channel(ground_truth_model(), rng)
            copies = [channel.transmit_many(ref, coverage) for ref in references]
            return copies, rng.getstate()

        assert_differential(
            *_both_paths(run),
            st.tuples(
                st.lists(
                    st.one_of(strands("ACGT"), strands(SYMBOLS)), max_size=3
                ),
                st.sampled_from((0, 1, 5, 164)),
                st.integers(0, 2**32),
            ),
            max_examples=30,
        )

    def test_degenerate_coverage_and_reference(self):
        for path in PATHS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(channel_module, "AUTO_MIN_DRAWS", PATHS[path])
                rng = random.Random(MAIN_SEED)
                channel = Channel(ground_truth_model(), rng)
                assert channel.transmit_many("ACGT" * 30, 0) == []
                # Coverage 0 transmits nothing, so neither path may look
                # at the symbols (the sweep's per-reference prep rejects N).
                assert channel.transmit_many("N" * 200, 0) == []
                assert channel.transmit_many("", 7) == [""] * 7
                assert channel.transmit("") == ""
                # Degenerate calls consume no randomness on either path.
                assert rng.getstate() == random.Random(MAIN_SEED).getstate()

    def test_interleaved_transmits_share_the_stream(self):
        """Mixing transmit/transmit_many/raw rng draws stays in lockstep:
        the bulk source must leave the Python RNG exactly where the
        serial loop would have."""

        def run():
            rng = random.Random(MAIN_SEED + 4)
            channel = Channel(ground_truth_model(), rng)
            trace = []
            for _ in range(4):
                trace.append(channel.transmit_many("ACGT" * 30, 9))
                trace.append(rng.random())  # raw draw between bulk calls
                trace.append(channel.transmit(random_strand(110, rng)))
            return trace, rng.getstate()

        differential(run)


class TestSimulatorEquivalence:
    """Both RNG modes of the Simulator, plus the streamed generator."""

    @pytest.fixture(scope="class")
    def profile(self) -> ErrorProfile:
        pool = make_nanopore_dataset(n_clusters=30, seed=MAIN_SEED)
        return ErrorProfile.from_pool(pool)

    @pytest.mark.parametrize("stage", list(SimulatorStage))
    def test_serial_stream_identical_across_stages(self, profile, stage):
        references = [
            random_strand(110, random.Random(MAIN_SEED + 5)) for _ in range(12)
        ]

        def run():
            simulator = Simulator.fitted(
                profile, stage=stage, coverage=ConstantCoverage(6), seed=17
            )
            return _flatten(simulator.simulate(references))

        differential(run)

    def test_per_cluster_seeds_identical(self):
        references = [
            random_strand(110, random.Random(MAIN_SEED + 6)) for _ in range(10)
        ]

        def run():
            simulator = Simulator(
                ground_truth_model(),
                coverage=ConstantCoverage(5),
                seed=23,
                per_cluster_seeds=True,
            )
            return _flatten(simulator.simulate(references, workers=1))

        differential(run)

    def test_streamed_nanopore_identical(self):
        def run():
            return [
                (cluster.reference, list(cluster.copies))
                for cluster in iter_nanopore_clusters(
                    n_clusters=20, seed=MAIN_SEED, shards=3, workers=1
                )
            ]

        differential(run)


class TestFastMask:
    """The vectorised homopolymer mask must equal the reference scan."""

    def test_matches_reference_implementation(self):
        rng = random.Random(MAIN_SEED)
        strands = ["", "A", "AA", "ACGT" * 30, "A" * 110, "AABBAACC"]
        strands += [random_strand(length, rng) for length in (2, 3, 110, 257)]
        strands += [
            "".join(rng.choice("AACCGT") for _ in range(50)) for _ in range(20)
        ]
        for strand in strands:
            assert homopolymer_mask_fast(strand) == homopolymer_mask(strand)

    def test_non_ascii_falls_back(self):
        assert homopolymer_mask_fast("AAééT") is None


class TestDispatch:
    """The sweep runs for calls of at least ``AUTO_MIN_DRAWS`` draws on a
    plain ``random.Random``; everything else runs the reference loop."""

    def test_default_is_auto(self):
        assert channel_backend() == "auto"

    def test_auto_threshold(self):
        channel = Channel(ground_truth_model(), random.Random(0))
        assert channel._use_sweep(AUTO_MIN_DRAWS)
        assert not channel._use_sweep(AUTO_MIN_DRAWS - 1)

    def test_subclassed_rng_degrades_to_python(self, monkeypatch):
        class LoggedRandom(random.Random):
            pass

        assert not rng_supports_bulk(LoggedRandom(0))
        monkeypatch.setattr(channel_module, "AUTO_MIN_DRAWS", 0)
        channel = Channel(ground_truth_model(), LoggedRandom(0))
        # A forced sweep still degrades (bit-identical either way).
        assert not channel._use_sweep(10**9)
        reference = "ACGT" * 30
        copies = channel.transmit_many(reference, 20)
        monkeypatch.setattr(channel_module, "AUTO_MIN_DRAWS", sys.maxsize)
        assert copies == Channel(
            ground_truth_model(), LoggedRandom(0)
        ).transmit_many(reference, 20)

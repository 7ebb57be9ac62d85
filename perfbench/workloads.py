"""The benchmark workloads, driven through ``repro``'s public API.

Each workload has three steps:

* ``make_inputs(seed, scale, workdir)`` builds the inputs from the seed
  (set-up, untimed per pass);
* ``run_pass(inputs, recorder)`` is one timed end-to-end pass, run with
  a :class:`~spans.NullRecorder`;
* ``run_layered(inputs, recorder)`` is one pass of a per-layer run.  Every
  call into a layer of the program sits inside ``recorder.layer(...)``;
  a per-layer run alternates a :class:`~spans.NullRecorder`, whose spans
  cost nothing, with a recording one.  It must give the same output as
  ``run_pass``;
* ``check(raw)`` turns the pass's raw output into a JSON-ready summary
  whose digest is compared against the expected one, outside the timed
  region.  It raises when the pass failed in a way a digest cannot show.

Two scales exist: ``SCALES`` (what the benchmark measures) and ``TINY``
(what the benchmark's tests run).  Strand length is 110 everywhere.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.analysis import ErrorStatistics
from repro.core import (
    Channel,
    ConstantCoverage,
    ErrorProfile,
    Simulator,
    SimulatorStage,
    StrandPool,
)
from repro.core.alphabet import random_strand
from repro.data import make_nanopore_dataset, read_pool, write_pool
from repro.jobs import JobJournal, JobSpec, JobState, run_job
from repro.metrics.accuracy import AccuracyTally
from repro.metrics.curves import post_reconstruction_curves
from repro.parallel import derive_seed
from repro.reconstruct import (
    BMALookahead,
    IterativeReconstruction,
    PositionalMajority,
)
from repro.sharding import merge_shard_results, plan_fullscale, run_fullscale

STRAND_LENGTH = 110

#: Copies per cluster the profiler aligns (the experiments' setting).
PROFILE_COPIES = 4

#: ``run_fullscale``'s algorithms, in its order, with the layer each is.
FULLSCALE_ALGORITHMS = (
    ("majority", PositionalMajority, "reconstruct.majority"),
    ("bma", BMALookahead, "reconstruct.bma"),
)

#: Table 3.1's algorithms, by the paper's names.
PAPER_ALGORITHMS = (
    ("BMA", BMALookahead, "reconstruct.bma"),
    ("Iterative", IterativeReconstruction, "reconstruct.iterative"),
)

#: Sizes measured by the benchmark.
SCALES = {
    "fullscale": {"clusters": 300, "shards": 12, "job_workers": 2},
    "paper_eval": {"clusters": 64, "evaluated": 40, "coverage": 5},
}

#: Sizes the benchmark's tests run (seconds in total).
TINY = {
    "fullscale": {"clusters": 12, "shards": 3, "job_workers": 2},
    "paper_eval": {"clusters": 12, "evaluated": 6, "coverage": 5},
}


@dataclass
class PassOutput:
    """What one pass returns: raw output for ``check`` and the reads it
    generated, profiled or reconstructed (the ``reads_per_s`` count)."""

    raw: object
    reads: int


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, dict, Path], dict]
    run_pass: Callable[[dict, object], PassOutput]
    run_layered: Callable[[dict, object], PassOutput]
    check: Callable[[object], tuple[dict, dict]]


def _profiled_pairs(pool: StrandPool) -> int:
    return sum(min(cluster.coverage, PROFILE_COPIES) for cluster in pool)


def _reconstruct(reconstructor, layer: str, pool: StrandPool, recorder):
    """Reconstruct and score one pool; returns ``(estimates, tally)``."""
    with recorder.layer(layer, items=len(pool)) as attrs:
        estimates = reconstructor.reconstruct_pool(
            pool, STRAND_LENGTH, workers=1, shards=1
        )
    tally = AccuracyTally()
    with recorder.layer("metrics.accuracy", items=len(pool)):
        tally.update_many(pool.references, estimates)
    attrs["exact"] = tally.n_perfect
    return estimates, tally


# ------------------------------------------------------------------ #
# fullscale: run_fullscale(majority, bma); per layer, a replay and a job
# ------------------------------------------------------------------ #


def _fullscale_inputs(seed: int, scale: dict, workdir: Path) -> dict:
    root = workdir / "jobs"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return {"seed": seed, "root": root, "passes": 0, **scale}


def _fullscale_pass(inputs: dict, recorder) -> PassOutput:
    """``run_fullscale`` at workers=1."""
    result = run_fullscale(
        n_clusters=inputs["clusters"],
        seed=inputs["seed"],
        shards=inputs["shards"],
        workers=1,
        algorithms=tuple(name for name, _, _ in FULLSCALE_ALGORITHMS),
        max_copies=PROFILE_COPIES,
    )
    return PassOutput((result, None), result.n_reads)


def _fullscale_layered(inputs: dict, recorder) -> PassOutput:
    """The replay of ``run_fullscale``, then the same plan through
    ``run_job`` at ``job_workers`` worker processes.

    ``check`` requires both executors to merge to the same summary; the
    reads count once per executor.
    """
    result = _fullscale_replay(inputs, recorder)
    inputs["passes"] += 1
    spec = JobSpec(
        job_id=f"pass-{inputs['passes']}",
        n_clusters=inputs["clusters"],
        seed=inputs["seed"],
        shards=inputs["shards"],
        workers=inputs["job_workers"],
        algorithms=tuple(name for name, _, _ in FULLSCALE_ALGORITHMS),
        max_copies=PROFILE_COPIES,
    )
    with recorder.layer("jobs", items=inputs["shards"]):
        job = run_job(inputs["root"], spec)
    return PassOutput((result, (inputs["root"], job)), 2 * result.n_reads)


def _fullscale_replay(inputs: dict, recorder):
    """``run_fullscale`` replayed through public calls, one span each.

    ``run_fullscale`` runs every stage inside ``run_shard``, which no
    span from outside can split.  This replays ``run_shard``'s stage
    sequence for each shard of the same plan; the pass digest then
    requires the merged summary to equal the untraced ``run_fullscale``
    one.
    """
    with recorder.layer("sharding", part="plan", items=inputs["shards"]):
        plan = plan_fullscale(
            n_clusters=inputs["clusters"],
            seed=inputs["seed"],
            shards=inputs["shards"],
            algorithms=tuple(name for name, _, _ in FULLSCALE_ALGORITHMS),
            max_copies=PROFILE_COPIES,
        )
    config = plan.config
    shard_results = []
    for _, chunk in plan.shard_items():
        with recorder.layer("core.channel") as attrs:
            channel = Channel(config.model)
            clusters = []
            for cluster_index, coverage in chunk:
                reference = random_strand(
                    config.strand_length,
                    random.Random(derive_seed(config.reference_base, cluster_index)),
                )
                channel.rng = random.Random(derive_seed(config.seed, cluster_index))
                clusters.append(channel.transmit_cluster(reference, coverage))
            pool = StrandPool(clusters)
            attrs["items"] = n_reads = sum(c.coverage for c in clusters)
        statistics = ErrorStatistics()
        with recorder.layer("analysis.error_stats", items=_profiled_pairs(pool)):
            statistics.tally_pool(pool, config.max_copies)
        tallies = {}
        for name, algorithm, layer in FULLSCALE_ALGORITHMS:
            _, tallies[name] = _reconstruct(algorithm(), layer, pool, recorder)
        shard_results.append((statistics, tallies, n_reads))
    with recorder.layer("sharding", part="merge", items=inputs["shards"]):
        result = merge_shard_results(plan, shard_results, workers=1)
    return result


def _fullscale_check(raw) -> tuple[dict, dict]:
    """The merged summary.

    After a job, raises unless it succeeded with every shard on its first
    attempt and both executors agree; also returns the journal figures
    the ``jobs`` layer reports, then deletes the journal so disk use
    stays flat over a run.
    """
    result, ran_job = raw
    summary = result.summary()
    if ran_job is None:
        return summary, {}
    root, job = ran_job
    journal = JobJournal.open(root, job.job_id)
    try:
        events = journal.events()
        started = {
            event["shard"]: event["t"]
            for event in events
            if event["event"] == "shard_started"
        }
        attempts = sum(1 for e in events if e["event"] == "shard_started")
        shard_s = [
            event["t"] - started[event["shard"]]
            for event in events
            if event["event"] == "shard_succeeded"
        ]
        journal_bytes = sum(
            path.stat().st_size
            for path in journal.job_dir.rglob("*")
            if path.is_file()
        )
    finally:
        shutil.rmtree(journal.job_dir, ignore_errors=True)
    if job.state is not JobState.SUCCEEDED or not job.complete:
        raise RuntimeError(f"job ended {job.state.value}: {job.error}")
    if job.quarantined or attempts != job.n_shards:
        raise RuntimeError(
            f"job retried or quarantined shards: {attempts} attempts for "
            f"{job.n_shards} shards, quarantined "
            f"{list(job.quarantined_indices)}"
        )
    if {**job.result, "workers": summary["workers"]} != summary:
        raise RuntimeError(f"run_job gave {job.result}, run_fullscale {summary}")
    extras = {
        "shard_s": shard_s,
        "shard_attempts": attempts,
        "journal_bytes": journal_bytes,
    }
    return summary, extras


# ------------------------------------------------------------------ #
# paper_eval: Table 3.1 plus Fig 3.4 at N = 5
# ------------------------------------------------------------------ #


def _paper_eval_inputs(seed: int, scale: dict, workdir: Path) -> dict:
    rng = random.Random(seed)
    dataset = make_nanopore_dataset(
        n_clusters=scale["clusters"], seed=rng.getrandbits(32)
    )
    workdir.mkdir(parents=True, exist_ok=True)
    dataset_path = workdir / "dataset.evyat"
    write_pool(dataset, dataset_path)
    # The paper's fixed-coverage protocol (Section 3.2): shuffle each
    # cluster once, drop clusters under coverage 10, keep N copies.  A
    # fixed number of clusters is evaluated, so every seed does the
    # same amount of reconstruction.
    kept = (
        dataset.shuffled_copies(random.Random(rng.getrandbits(32)))
        .with_min_coverage(10)
        .trimmed(scale["coverage"])
    )
    if len(kept) < scale["evaluated"]:
        raise ValueError(
            f"seed {seed}: only {len(kept)} clusters have coverage >= 10"
        )
    real = StrandPool(kept.clusters[: scale["evaluated"]])
    return {
        "dataset_path": dataset_path,
        "real": real,
        "coverage": scale["coverage"],
        "simulator_seed": rng.getrandbits(32),
    }


def _paper_eval_pass(inputs: dict, recorder) -> PassOutput:
    """Profile the dataset as read from disk, then Table 3.1 and Fig 3.4.

    ``real`` is the protocol's trim of the same dataset, made at set-up.
    """
    real: StrandPool = inputs["real"]
    with recorder.layer("data.io") as attrs:
        dataset = read_pool(inputs["dataset_path"])
        attrs["items"] = inputs["dataset_path"].stat().st_size
    # ``ErrorProfile.from_pool`` at one worker and one shard is exactly
    # this tally plus ``ErrorProfile(statistics)``; two calls let the
    # trace tell tallying (analysis.error_stats) from fitting
    # (core.profile).
    statistics = ErrorStatistics()
    with recorder.layer("analysis.error_stats", items=_profiled_pairs(dataset)):
        statistics.tally_pool(dataset, PROFILE_COPIES)
    profile = ErrorProfile(statistics)
    reads = _profiled_pairs(dataset) + real.total_copies
    table: dict[str, dict[str, list[float]]] = {}
    curves: dict[str, list[list[int]]] = {}

    def evaluate(label: str, pool: StrandPool) -> None:
        cell = table[label] = {}
        for name, algorithm, layer in PAPER_ALGORITHMS:
            estimates, tally = _reconstruct(algorithm(), layer, pool, recorder)
            report = tally.report()
            cell[name] = [report.per_strand, report.per_character]
            if pool is real:
                with recorder.layer("metrics.curves", items=len(pool)):
                    curves[name] = list(
                        post_reconstruction_curves(
                            pool, estimates, workers=1, shards=1
                        )
                    )

    evaluate("Nanopore", real)
    for stage in SimulatorStage:
        with recorder.layer("core.profile", items=1):
            model = profile.model_for_stage(stage)
        with recorder.layer("core.simulator") as attrs:
            simulator = Simulator(
                model,
                ConstantCoverage(inputs["coverage"]),
                seed=inputs["simulator_seed"],
            )
            pool = simulator.simulate(real.references)
            attrs["items"] = pool.total_copies
        reads += pool.total_copies
        evaluate(stage.label, pool)
    return PassOutput({"table": table, "curves": curves}, reads)


def _identity_check(output: dict) -> tuple[dict, dict]:
    return output, {}


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fullscale",
            _fullscale_inputs,
            _fullscale_pass,
            _fullscale_layered,
            _fullscale_check,
        ),
        Workload(
            "paper_eval",
            _paper_eval_inputs,
            _paper_eval_pass,
            _paper_eval_pass,
            _identity_check,
        ),
    )
}

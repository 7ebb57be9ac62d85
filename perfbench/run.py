"""Pipeline benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fullscale --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes;
``--trace 1`` alternates untraced and traced per-layer passes and prints
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any pass failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from hostspeed import run_block, to_reference, unit_seconds
from spans import PASS_SPAN, NullRecorder, Recorder, layer_metrics, to_jsonl

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench"

#: Seed whose expected output digests are stored in ``expected.json``.
DEFAULT_SEED = 0

#: Extra cold set-ups, each in its own process; ``setup_s`` is the
#: median of these and the run's own set-up.
SETUP_CHILDREN = 2

#: Seconds of the reference kernel right before and right after a
#: set-up (see ``hostspeed``).
SETUP_BLOCK_S = 0.5

#: The kernel block after each timed pass lasts this share of the pass.
BLOCK_SHARE = 0.5

#: The whole ``REPRO_*`` environment the program sees.  Ambient values
#: are dropped first, so a warm context cache, a worker or shard count,
#: or a pinned backend in the caller's shell cannot change the work.
PROGRAM_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_SHARDS": "1",
    "REPRO_ALIGN_BACKEND": "auto",
    "REPRO_CHANNEL_BACKEND": "auto",
    "REPRO_N_CLUSTERS": "200",
    "REPRO_PARALLEL_MIN_ITEMS": "4",
    "REPRO_FORCE_PARALLEL": "0",
    "REPRO_CACHE": "off",
    "REPRO_CACHE_DIR": str(OUT_DIR / "cache"),
    "REPRO_JOBS_DIR": str(OUT_DIR / "jobs"),
    "REPRO_LOG_LEVEL": "warning",
    "REPRO_LOG_JSON": "0",
}


def isolate_environment() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PROGRAM_ENV)
    # ``stamp_record`` asks git for the commit; stop its search at this
    # checkout instead of walking up through the directories above it.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits non-zero without a result when the sources are missing, or when
    ``repro`` resolves to a copy outside this checkout.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import repro from {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def fingerprint() -> dict:
    """The host and build a record was measured on."""
    import numpy

    from repro.align.kernels import align_backend
    from repro.core import channel_backend

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "align_backend": align_backend(),
        "channel_backend": channel_backend(),
    }


class Passes:
    """Runs passes of one workload and checks every output."""

    def __init__(self, workload, inputs: dict, expected: str | None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reads = 0
        self.extras: list[dict] = []

    def run(self, run_pass, recorder) -> float | None:
        """One pass of ``run_pass``; returns its wall seconds, or None if
        it failed.

        The first pass of a seed with no stored digest sets the digest
        every later pass must match.
        """
        from repro.observability.bench import content_digest

        self.attempted += 1
        try:
            with recorder.span(PASS_SPAN, workload=self.workload.name):
                started = time.perf_counter()
                output = run_pass(self.inputs, recorder)
                wall = time.perf_counter() - started
            summary, extras = self.workload.check(output.raw)
            digest = content_digest(summary)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            print(
                f"perfbench: {self.workload.name} pass {self.attempted}: "
                f"digest {digest} != expected {self.expected}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        self.reads = output.reads
        if extras and isinstance(recorder, Recorder):
            self.extras.append(extras)
        return wall


def job_metrics(extras: list[dict], jobs_busy_s: float, workers: int) -> dict:
    """The ``jobs`` layer's journal figures, averaged over traced passes."""
    if not extras:
        return {
            name: 0.0
            for name in (
                "jobs.shard_p50_s",
                "jobs.shard_p90_s",
                "jobs.shard_attempts",
                "jobs.journal_bytes",
                "jobs.idle_frac",
            )
        }
    shard_s = [seconds for extra in extras for seconds in extra["shard_s"]]
    passes = len(extras)
    return {
        "jobs.shard_p50_s": statistics.median(shard_s),
        "jobs.shard_p90_s": statistics.quantiles(shard_s, n=10, method="inclusive")[8],
        "jobs.shard_attempts": sum(e["shard_attempts"] for e in extras) / passes,
        "jobs.journal_bytes": sum(e["journal_bytes"] for e in extras) / passes,
        "jobs.idle_frac": 1.0 - sum(shard_s) / passes / (workers * jobs_busy_s),
    }


def set_up(
    name: str, seed: int, scale: dict, expected: str | None, import_s: float
):
    """Generate the inputs and run the untimed end-to-end warm-up pass.

    The warm-up fills lazy caches (the channel's ``_tables``) and, for a
    seed without a stored digest, sets the digest later passes must
    match, per-layer passes too.  Returns ``(passes, setup_s, block)``:
    ``setup_s`` is ``import_s`` plus the set-up, in reference seconds,
    and ``block`` the kernel block run right after the set-up.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    before = run_block(SETUP_BLOCK_S)
    started = time.perf_counter()
    inputs = workload.make_inputs(seed, scale, OUT_DIR / "work" / name)
    passes = Passes(workload, inputs, expected)
    passes.run(workload.run_pass, NullRecorder())
    seconds = import_s + time.perf_counter() - started
    after = run_block(SETUP_BLOCK_S)
    return passes, to_reference(seconds, [before, after]), after


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: dict | None = None,
    expected: str | None = None,
    import_s: float = 0.0,
) -> tuple[dict, dict]:
    """Set up and measure one workload; returns ``(result, record)``.

    ``result`` is the line the benchmark prints last; ``record`` adds
    the pass times, the output digest and every measured value.
    ``wall_s`` is the median untraced pass in reference seconds: the
    passes are scaled by the host speed the kernel blocks between them
    measured.
    """
    from workloads import SCALES

    scale = SCALES[name] if scale is None else scale
    passes, setup_s, block = set_up(name, seed, scale, expected, import_s)

    run_pass = passes.workload.run_layered if trace else passes.workload.run_pass
    recorder = Recorder()
    walls: list[float | None] = []
    blocks = [block]
    traced_walls: list[float | None] = []
    started = time.perf_counter()
    # A failed pass ends the run: its result is wrong whatever follows.
    while not passes.failed:
        wall = passes.run(run_pass, NullRecorder())
        walls.append(wall)
        if trace:
            traced_walls.append(passes.run(run_pass, recorder))
        elif wall is not None:
            blocks.append(run_block(BLOCK_SHARE * wall))
        if time.perf_counter() - started >= seconds:
            break
    walls = [wall for wall in walls if wall is not None]
    traced_walls = [wall for wall in traced_walls if wall is not None]

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "digest": passes.expected,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "failed_frac": passes.failed / passes.attempted,
        "walls_s": walls,
        "traced_walls_s": traced_walls,
        "wall_median_s": statistics.median(walls) if walls else None,
        "kernel_unit_s": unit_seconds(blocks),
        "kernel_blocks": [[b.units, b.seconds] for b in blocks],
    }
    if trace:
        metrics = layer_metrics(recorder.records)
        metrics.update(
            job_metrics(
                passes.extras, metrics["jobs.busy_s"], scale.get("job_workers", 0)
            )
        )
        metrics["trace_overhead_frac"] = (
            min(traced_walls) / min(walls) - 1.0 if walls and traced_walls else 0.0
        )
        record["spans"] = recorder.records
    else:
        wall_s = to_reference(statistics.median(walls), blocks) if walls else 0.0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "reads_per_s": passes.reads / wall_s if wall_s else 0.0,
            "peak_rss_mb": rss_kb / 1024,
        }
    record["metrics"] = metrics
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }
    return result, record


def child_setups(args: argparse.Namespace) -> list[float | None]:
    """``SETUP_CHILDREN`` more cold set-ups, each in a fresh process.

    Returns each child's ``setup_s``, or None for a child that failed.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", "0", "--trace", "0", "--setup-only"),
    ]
    samples: list[float | None] = []
    for _ in range(SETUP_CHILDREN):
        try:
            child = subprocess.run(
                command, capture_output=True, text=True, timeout=120, check=False
            )
        except subprocess.TimeoutExpired:
            samples.append(None)
            continue
        sys.stderr.write(child.stderr)
        ok = child.returncode == 0
        samples.append(json.loads(child.stdout.splitlines()[-1]) if ok else None)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="only set up, then print the set-up seconds (child set-ups)",
    )
    args = parser.parse_args(argv)

    isolate_environment()
    import_program()
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    import_s = time.perf_counter() - START

    expected = (
        load_expected().get(args.workload) if args.seed == DEFAULT_SEED else None
    )
    if args.setup_only:
        from workloads import SCALES

        passes, setup_s, _ = set_up(
            args.workload, args.seed, SCALES[args.workload], expected, import_s
        )
        print(json.dumps(setup_s))
        return 0 if passes.failed == 0 else 1
    result, record = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        expected=expected,
        import_s=import_s,
    )
    if not args.trace and result["correct"]:
        # setup_s is the median of the run's own set-up and the children's,
        # measured after the passes so they count in neither the pass
        # times nor peak_rss_mb.  A child's warm-up is a checked pass.
        children = child_setups(args)
        samples = [result["metrics"]["setup_s"]]
        samples += [sample for sample in children if sample is not None]
        result["metrics"]["setup_s"] = statistics.median(samples)
        result["attempted"] += len(children)
        result["failed"] += children.count(None)
        result["correct"] = result["failed"] == 0
        record.update(
            setup_samples_s=samples,
            attempted=result["attempted"],
            failed=result["failed"],
            failed_frac=result["failed"] / result["attempted"],
        )
    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end" if not args.trace else "per_layer"]
    }
    mismatched = sorted(set(units) ^ set(result["metrics"]))
    if mismatched:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {mismatched}")

    from repro.observability.bench import stamp_record

    record = stamp_record({**record, "fingerprint": fingerprint()})
    spans = record.pop("spans", None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / "records").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "records" / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if spans is not None:
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{stem}.jsonl").write_text(
            to_jsonl(spans), encoding="utf-8"
        )

    passes = len(record["traced_walls_s" if args.trace else "walls_s"])
    kind = "traced passes" if args.trace else "passes, wall_s is their median"
    print(f"{args.workload}: seed {args.seed}, {passes} {kind}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:32s} {value:14.6g} {units[metric]}")
    result["metrics"] = {
        metric: {"value": value, "unit": units[metric]}
        for metric, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

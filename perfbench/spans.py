"""Layer spans recorded from the benchmark's side of each call.

The benchmark times the program from outside: every call it makes into a
layer of ``repro`` runs inside ``recorder.layer(<module>)``.  A traced
pass wraps those calls in one ``perfbench.pass`` root span, so a layer's
share of a pass, and the part of the pass no layer covers, follow from
the records alone.

Records have the shape :class:`repro.observability.tracing.Tracer`
writes (``span_id``, ``parent_id``, ``name``, ``start_s``,
``duration_s``, ``outcome``, ``attrs``), so the exported JSON lines load
in ``dnasim report dashboard --run-dir`` unchanged.  The benchmark keeps
its own recorder instead of enabling the program's tracer: enabling that
would also turn on the spans and counters inside ``repro``, and the
untraced program is what the traced passes are compared against.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

#: Name of the root span around one traced pass.
PASS_SPAN = "perfbench.pass"

#: Every layer the benchmark can attribute time to, by module under
#: ``repro``.  Each reports ``busy_s``, ``items``, ``us_per_item`` and
#: ``share``, also on workloads that never call it (then all zero).
LAYERS = (
    "analysis.error_stats",
    "reconstruct.bma",
    "reconstruct.iterative",
    "reconstruct.majority",
    "core.channel",
    "core.simulator",
    "core.profile",
    "metrics.accuracy",
    "metrics.curves",
    "data.io",
    "sharding",
    "jobs",
)

#: Sub-steps of a layer that also report their own ``busy_s``.
PARTS = ("sharding.plan", "sharding.merge")


class NullRecorder:
    """Stands in for :class:`Recorder` in untraced passes."""

    def span(self, name: str, **attrs: object):
        return nullcontext(attrs)

    def layer(self, name: str, part: str | None = None, items: int = 0):
        return nullcontext({})


class Recorder:
    """Collects finished span records in memory for one traced run."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: object):
        """A span named ``name``; yields its ``attrs`` for late values."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        outcome = "ok"
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            outcome = "error"
            raise
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.records.append(
                {
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "name": name,
                    "start_s": round(start - self._epoch, 9),
                    "duration_s": duration,
                    "outcome": outcome,
                    "attrs": attrs,
                }
            )

    def layer(self, name: str, part: str | None = None, items: int = 0):
        """A span around one call into layer ``name`` (a ``LAYERS`` entry).

        ``part`` names a sub-step reported on its own as well
        (``sharding.plan``); ``items`` may be set on the yielded attrs
        once the call has returned.
        """
        span_name = f"{name}.{part}" if part else name
        if name not in LAYERS or (part and span_name not in PARTS):
            raise ValueError(f"unknown layer {span_name!r}")
        return self.span(span_name, layer=name, items=items)


def to_jsonl(records: list[dict]) -> str:
    """Records as JSON lines, the ``--trace FILE`` format."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced passes in ``records``.

    ``busy_s`` and ``items`` are means per pass; ``share`` is the layer's
    busy time over the traced pass wall time (its Amdahl share);
    ``unattributed_frac`` is the pass time no layer span covers.  Parts
    (``sharding.plan``) report their own ``busy_s``; reconstruct layers
    add ``exact_frac`` (clusters reconstructed exactly over attempted)
    and ``data.io`` adds ``mb_per_s``.
    """
    passes = [r for r in records if r["name"] == PASS_SPAN]
    n_passes = max(1, len(passes))
    pass_s = sum(r["duration_s"] for r in passes)
    busy = dict.fromkeys(LAYERS, 0.0)
    items = dict.fromkeys(LAYERS, 0)
    exact = dict.fromkeys(LAYERS, 0)
    parts = dict.fromkeys(PARTS, 0.0)
    for record in records:
        layer = record["attrs"].get("layer")
        if layer is None:
            continue
        busy[layer] += record["duration_s"]
        items[layer] += record["attrs"].get("items", 0)
        exact[layer] += record["attrs"].get("exact", 0)
        if record["name"] != layer:
            parts[record["name"]] += record["duration_s"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer] / n_passes
        metrics[f"{layer}.items"] = items[layer] / n_passes
        metrics[f"{layer}.us_per_item"] = (
            1e6 * busy[layer] / items[layer] if items[layer] else 0.0
        )
        metrics[f"{layer}.share"] = busy[layer] / pass_s if pass_s else 0.0
        if layer.startswith("reconstruct."):
            metrics[f"{layer}.exact_frac"] = (
                exact[layer] / items[layer] if items[layer] else 0.0
            )
    metrics["data.io.mb_per_s"] = (
        items["data.io"] / busy["data.io"] / 1e6 if busy["data.io"] else 0.0
    )
    for part, seconds in parts.items():
        metrics[f"{part}.busy_s"] = seconds / n_passes
    metrics["traced_wall_s"] = pass_s / n_passes
    metrics["unattributed_frac"] = (
        1.0 - sum(busy.values()) / pass_s if pass_s else 0.0
    )
    return metrics

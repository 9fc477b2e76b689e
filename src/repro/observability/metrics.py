"""Aggregate executed spans into per-phase / per-layer mesh metrics.

The span stream of :mod:`repro.observability.spans` is exact but long;
operators want the rolled-up view: how many collectives per phase, how
many bytes moved, and how the *modeled* time splits between compute and
communication.  :func:`phase_metrics` / :func:`layer_metrics` produce
those tables from any span list, and the ``format_*`` helpers render the
ASCII reports behind ``repro-inference metrics``.

Modeled quantities use the same pricing as the estimator: collective
seconds from Appendix A.1 (computed when the span was recorded, at the
tracer's chip bandwidth) and compute seconds as FLOPs over the chip's
peak — so ``mfu`` here is the roofline MFU the executed program would
achieve if every op ran at the modeled rate, and ``compute_fraction`` is
its roofline occupancy (the share of modeled time not spent waiting on
the interconnect).  Wall-clock seconds are also aggregated, but on a
numpy mesh they measure the simulation, not the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.chip import TPU_V4, ChipSpec
from repro.observability.spans import COLLECTIVE, COMPUTE, PHASE, RING_STEP

#: Span kinds that carry cost; envelope/region spans only provide wall
#: time and grouping context.
_LEAF_KINDS = (COLLECTIVE, RING_STEP, COMPUTE)


@dataclass
class GroupMetrics:
    """Rolled-up metrics for one group of spans (a phase or a layer)."""

    key: str
    collective_counts: dict[str, int] = field(default_factory=dict)
    comm_bytes: int = 0
    comm_events: int = 0
    flops: float = 0.0
    compute_events: int = 0
    wall_s: float = 0.0
    modeled_comm_s: float = 0.0
    modeled_compute_s: float = 0.0

    @property
    def modeled_total_s(self) -> float:
        """Serial (no-overlap) modeled time: compute + communication."""
        return self.modeled_comm_s + self.modeled_compute_s

    @property
    def compute_fraction(self) -> float:
        """Roofline occupancy: modeled compute share of modeled time."""
        total = self.modeled_total_s
        return self.modeled_compute_s / total if total else 0.0

    def mfu(self, chip: ChipSpec = TPU_V4) -> float:
        """Model FLOPs utilization at the modeled (serial) step time."""
        total = self.modeled_total_s
        return (self.flops / (chip.peak_flops * total)) if total else 0.0

    def _absorb(self, span) -> None:
        if span.kind in (COLLECTIVE, RING_STEP):
            self.collective_counts[span.name] = \
                self.collective_counts.get(span.name, 0) + 1
            self.comm_bytes += span.attrs.get("payload_bytes", 0)
            self.comm_events += 1
            self.modeled_comm_s += span.attrs.get("modeled_s", 0.0)
            self.wall_s += span.duration_s
        elif span.kind == COMPUTE:
            self.flops += span.attrs.get("flops", 0.0)
            self.compute_events += 1
            self.modeled_compute_s += span.attrs.get("modeled_s", 0.0)
            self.wall_s += span.duration_s


def phase_metrics(spans) -> dict[str, GroupMetrics]:
    """Per-phase rollup of leaf spans, in first-seen phase order.

    ``wall_s`` of a phase is replaced by the enclosing phase-region
    span's duration when one exists (it includes per-op glue the leaf
    spans don't cover).
    """
    groups: dict[str, GroupMetrics] = {}
    region_wall: dict[str, float] = {}
    for span in spans:
        if span.kind == PHASE:
            region_wall[span.phase] = (region_wall.get(span.phase, 0.0)
                                       + span.duration_s)
            continue
        if span.kind not in _LEAF_KINDS:
            continue
        group = groups.setdefault(span.phase,
                                  GroupMetrics(key=span.phase or "(none)"))
        group._absorb(span)
    for phase, wall in region_wall.items():
        if phase in groups:
            groups[phase].wall_s = wall
    return groups


def layer_metrics(spans, phase: str | None = None
                  ) -> dict[tuple[str, int], GroupMetrics]:
    """Per-(phase, layer) rollup; ``layer == -1`` collects out-of-block
    work (embedding residual entry, final norm, logits)."""
    groups: dict[tuple[str, int], GroupMetrics] = {}
    for span in spans:
        if phase is not None and span.phase != phase:
            continue
        if span.kind not in _LEAF_KINDS:
            continue
        key = (span.phase, span.layer)
        group = groups.setdefault(
            key, GroupMetrics(key=f"{span.phase or '(none)'}/"
                              f"{'L%d' % span.layer if span.layer >= 0 else 'outside'}"))
        group._absorb(span)
    return groups


def _row(label: str, m: GroupMetrics, chip: ChipSpec) -> str:
    counts = " ".join(f"{op}x{n}" for op, n in
                      sorted(m.collective_counts.items()))
    return (f"{label:>18s} {m.comm_events:>6d} {m.comm_bytes / 1e6:>9.3f} "
            f"{m.modeled_comm_s * 1e6:>10.2f} {m.modeled_compute_s * 1e6:>10.2f} "
            f"{m.compute_fraction:>8.1%} {m.mfu(chip):>7.1%}  {counts}")


_HEADER = (f"{'group':>18s} {'colls':>6s} {'MB/chip':>9s} "
           f"{'comm µs':>10s} {'mxu µs':>10s} {'roofline':>8s} "
           f"{'MFU':>7s}  collective counts")


def format_phase_metrics(spans, chip: ChipSpec = TPU_V4) -> str:
    """ASCII per-phase table (the ``repro-inference metrics`` report)."""
    lines = ["Per-phase mesh metrics (modeled times at "
             f"{chip.name} constants)", _HEADER]
    for phase, m in phase_metrics(spans).items():
        lines.append(_row(phase or "(none)", m, chip))
    return "\n".join(lines)


def format_layer_metrics(spans, phase: str,
                         chip: ChipSpec = TPU_V4) -> str:
    """ASCII per-layer table for one phase."""
    lines = [f"Per-layer mesh metrics, phase {phase!r}", _HEADER]
    for (_, layer), m in sorted(layer_metrics(spans, phase).items()):
        label = f"L{layer}" if layer >= 0 else "outside"
        lines.append(_row(label, m, chip))
    return "\n".join(lines)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[idx]


@dataclass
class ClassSlo:
    """Latency/goodput rollup for one priority class."""

    name: str
    completed: int = 0
    goodput: int = 0          # completions that met their deadline
    tokens: int = 0
    ttft: list[float] = field(default_factory=list)
    tpot: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "goodput": self.goodput,
            "tokens": self.tokens,
            "ttft_p50_s": round(_percentile(self.ttft, 0.50), 6),
            "ttft_p99_s": round(_percentile(self.ttft, 0.99), 6),
            "tpot_p50_s": round(_percentile(self.tpot, 0.50), 6),
            "tpot_p99_s": round(_percentile(self.tpot, 0.99), 6),
        }


def slo_summary(events) -> dict[str, ClassSlo]:
    """Per-class TTFT/TPOT percentiles + goodput from an event stream.

    Consumes ``request_completed`` events carrying the latency fields the
    cluster control plane records (``priority_class``, ``ttft_s``,
    ``tpot_s``, ``n_tokens``, ``met_deadline``).  Goodput counts
    completions that met their deadline; requests without a deadline
    always count.  Events missing the latency fields (older producers)
    are skipped.
    """
    classes: dict[str, ClassSlo] = {}
    for event in events:
        if event.kind != "request_completed":
            continue
        if event.get("ttft_s") is None:
            continue
        name = event.get("priority_class", "(none)")
        slo = classes.setdefault(name, ClassSlo(name=name))
        slo.completed += 1
        if event.get("met_deadline", True):
            slo.goodput += 1
        slo.tokens += event.get("n_tokens", 0)
        slo.ttft.append(event["ttft_s"])
        slo.tpot.append(event["tpot_s"])
    return classes


def capture_stats_line(stats: dict) -> str:
    """One-line capture-cache summary for per-replica chaos reports."""
    return (f"programs={stats.get('programs', 0)} "
            f"replays={stats.get('replays', 0)} "
            f"hit_rate={stats.get('hit_rate', 0.0):.1%} "
            f"evictions={stats.get('evictions', 0)} "
            f"invalidations={stats.get('invalidations', 0)}")


def kvstore_stats_line(stats: dict) -> str:
    """One-line prefix-cache summary for per-replica chaos reports."""
    return (f"pages={stats.get('pages', 0)}"
            f"/{stats.get('capacity_pages', 0)} "
            f"hit_rate={stats.get('hit_rate', 0.0):.1%} "
            f"tokens_saved={stats.get('tokens_total', 0) - stats.get('tokens_computed', 0)} "
            f"evictions={stats.get('evictions', 0)} "
            f"leases={stats.get('leases', 0)}/"
            f"{stats.get('releases', 0)}")


def format_kvstore_stats(stats: dict) -> str:
    """ASCII table for a :meth:`KVStore.stats` snapshot.

    Shows the paged prefix cache's population (pages resident and
    pinned), the lookup/hit/miss counters at both request and page
    granularity, lease accounting, and the per-reason invalidation
    breakdown (``replan``, ``restart``, ``explicit``).  ``tokens_total``
    vs ``tokens_computed`` is the headline: the gap is prefill compute
    the radix index turned into page reuse.
    """
    lines = ["Paged KV prefix cache",
             f"{'counter':>18s} {'value':>10s}"]
    for key in ("pages", "capacity_pages", "page_tokens", "pinned_pages",
                "lookups", "hits", "misses", "pages_hit", "pages_missed",
                "inserts", "adoptions", "evictions", "invalidations",
                "leases", "releases", "stale_releases",
                "tokens_total", "tokens_computed", "bytes_saved"):
        lines.append(f"{key:>18s} {stats.get(key, 0):>10d}")
    lines.append(f"{'hit rate':>18s} {stats.get('hit_rate', 0.0):>10.1%}")
    lines.append(f"{'occupancy':>18s} {stats.get('occupancy', 0.0):>10.1%}")
    reasons = stats.get("invalidation_reasons") or {}
    if reasons:
        lines.append("invalidations by reason:")
        for reason, count in sorted(reasons.items()):
            lines.append(f"{reason:>18s} {count:>10d}")
    return "\n".join(lines)


def format_capture_stats(stats: dict) -> str:
    """ASCII table for a :meth:`StepCompiler.stats` snapshot.

    Shows the program-cache population and hit/miss/eviction counters,
    plus the per-reason invalidation breakdown (``plan``, ``caches``,
    ``degraded``, ... — the :meth:`CapturedProgram.mismatch` reasons and
    ``explicit`` for :meth:`StepCompiler.invalidate` calls).  The
    constant rows show the programs' referenced constant bytes against
    the pooled (distinct) bytes actually held; ``deduped_instructions``
    counts the kernels the cached programs run on one replica.
    """
    lines = ["Step-compiler program cache",
             f"{'counter':>18s} {'value':>10s}"]
    for key in ("programs", "optimized_programs",
                "deduped_instructions", "eager_steps",
                "captures", "replays", "hits", "misses", "evictions",
                "invalidations", "const_bytes", "const_unique_bytes"):
        lines.append(f"{key:>18s} {stats.get(key, 0):>10d}")
    lines.append(f"{'hit rate':>18s} {stats.get('hit_rate', 0.0):>10.1%}")
    reasons = stats.get("invalidation_reasons") or {}
    if reasons:
        lines.append("invalidations by reason:")
        for reason, count in sorted(reasons.items()):
            lines.append(f"{reason:>18s} {count:>10d}")
    return "\n".join(lines)

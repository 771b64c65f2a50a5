"""Text dashboard over a ``riveter-timeline/1`` artifact.

``python -m repro report timeline.jsonl`` renders the artifact written by
``repro fleet --timeline-out`` (or ``repro query --timeline-out``) as a
terminal dashboard: windowed latency quantiles per tenant class, the SLO
burn-rate history as a unicode sparkline, the fired alerts, and the top-k
slowest query lifecycles with a causal breakdown of where their time
went.  Everything is computed from the artifact alone — the dashboard
never re-runs the simulation — so it can be pointed at an artifact from
any machine or CI run.

The renderer is deterministic: given the same artifact bytes it produces
the same text, with no wall-clock or environment dependence.

:func:`render_profile` is the same idea for ``riveter-profile/1``
envelopes (``python -m repro profile``): deterministic text from the
artifact alone — though the artifact's wall numbers are of course
host-dependent.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.metrics import percentile
from repro.obs.timeline import Timeline

__all__ = ["sparkline", "render_report", "render_profile"]

#: Eight-level bar glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], ceiling: float | None = None) -> str:
    """Render *values* as a unicode sparkline.

    *ceiling* pins the top glyph to a fixed value (e.g. the alert
    threshold) so sparklines are comparable across series; by default the
    series' own maximum maps to the top glyph.
    """
    if not values:
        return ""
    top = max(values) if ceiling is None else ceiling
    if top <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    out = []
    for value in values:
        level = int(min(1.0, max(0.0, value / top)) * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[level])
    return "".join(out)


def _class_rows(timeline: Timeline) -> list[tuple]:
    """Per-tenant-class rows: counts, overall quantiles, windowed p95."""
    by_class: dict[str, list[dict]] = defaultdict(list)
    for completion in timeline.completions:
        by_class[completion.get("tenant_class", "?")].append(completion)
    window = timeline.window_seconds
    rows = []
    for klass in sorted(by_class):
        completions = by_class[klass]
        latencies = [c["latency"] for c in completions]
        missed = sum(1 for c in completions if not c.get("slo_attained", True))
        windowed: dict[int, list[float]] = defaultdict(list)
        for c in completions:
            windowed[int(c["finished_at"] // window)].append(c["latency"])
        series = [
            percentile(windowed[w], 0.95) for w in sorted(windowed)
        ]
        rows.append(
            (
                klass,
                len(completions),
                missed,
                f"{percentile(latencies, 0.50):.2f}",
                f"{percentile(latencies, 0.95):.2f}",
                sparkline(series),
            )
        )
    return rows


def _tenant_rows(timeline: Timeline) -> list[tuple]:
    by_tenant: dict[str, list[dict]] = defaultdict(list)
    for completion in timeline.completions:
        by_tenant[completion.get("tenant", "?")].append(completion)
    rows = []
    for tenant in sorted(by_tenant):
        completions = by_tenant[tenant]
        latencies = [c["latency"] for c in completions]
        missed = sum(1 for c in completions if not c.get("slo_attained", True))
        suspensions = sum(c.get("suspensions", 0) for c in completions)
        rows.append(
            (
                tenant,
                completions[0].get("tenant_class", "?"),
                len(completions),
                missed,
                f"{percentile(latencies, 0.95):.2f}",
                suspensions,
            )
        )
    return rows


def _burn_lines(timeline: Timeline) -> list[str]:
    """One sparkline per ``slo_burn_rate:*`` series, threshold-scaled."""
    threshold = 2.0
    if timeline.alerts:
        threshold = timeline.alerts[0].get("threshold", threshold)
    lines = []
    prefix = "slo_burn_rate:"
    names = [n for n in timeline.header.get("series", []) if n.startswith(prefix)]
    for name in sorted(names):
        samples = timeline.series(name)
        values = [s["max"] for s in samples]
        peak = max(values) if values else 0.0
        lines.append(
            f"  {name[len(prefix):]:<12} {sparkline(values, ceiling=2 * threshold)} "
            f"peak={peak:.2f} (alert at {threshold:.1f})"
        )
    return lines


def _span_breakdown(timeline: Timeline, root: dict) -> str:
    """``name=seconds`` summary of a lifecycle's direct phase spans."""
    totals: dict[str, float] = defaultdict(float)
    for span in timeline.subtree(root["span_id"]):
        if span["ph"] != "X":
            continue
        name = span["name"].split(":", 1)[0]
        totals[name] += span.get("dur", 0.0)
    parts = [f"{name}={totals[name]:.2f}s" for name in sorted(totals)]
    return " ".join(parts) if parts else "(no child spans)"


def _slowest_rows(timeline: Timeline, top_k: int) -> list[str]:
    roots = sorted(
        timeline.roots(), key=lambda s: (-s.get("dur", 0.0), s["span_id"])
    )
    lines = []
    for root in roots[:top_k]:
        args = root.get("args", {})
        label = root["name"].split(":", 1)[-1]
        tenant = args.get("tenant", args.get("strategy", "-"))
        lines.append(
            f"  {label:<16} {root.get('dur', 0.0):7.2f}s  tenant={tenant}  "
            f"trace={root['trace_id']}"
        )
        lines.append(f"    {_span_breakdown(timeline, root)}")
    return lines


def render_report(timeline: Timeline, top_k: int = 5) -> str:
    """Render the full text dashboard for a parsed timeline artifact."""
    # Imported here: ``repro.harness`` pulls in the experiment suite
    # (engine, cloud), which itself imports ``repro.obs``.
    from repro.harness.report import format_table

    header = timeline.header
    counts = header.get("counts", {})
    lines = [
        "== timeline report ==",
        f"policy={header.get('policy', '-')} seed={header.get('seed', '-')} "
        f"duration={header.get('duration', 0.0):.0f}s "
        f"window={timeline.window_seconds:.0f}s",
        f"records: {counts.get('samples', 0)} samples, "
        f"{counts.get('spans', 0)} spans, "
        f"{counts.get('completions', 0)} completions, "
        f"{counts.get('alerts', 0)} alerts",
    ]
    dropped = header.get("dropped_events", 0)
    if dropped:
        lines.append(
            f"WARNING: the tracer dropped {dropped} event(s); "
            "span trees below may be incomplete"
        )

    class_rows = _class_rows(timeline)
    if class_rows:
        lines.append("")
        lines.append("-- per-class windowed latency (p95 per window, sparkline) --")
        lines.append(
            format_table(
                ("class", "done", "missed", "p50", "p95", "windowed p95"),
                class_rows,
            )
        )

    tenant_rows = _tenant_rows(timeline)
    if tenant_rows:
        lines.append("")
        lines.append("-- per-tenant summary --")
        lines.append(
            format_table(
                ("tenant", "class", "done", "missed", "p95", "susp"), tenant_rows
            )
        )

    burn = _burn_lines(timeline)
    if burn:
        lines.append("")
        lines.append("-- SLO error-budget burn rate (per window, █ = 2x threshold) --")
        lines.extend(burn)

    if timeline.alerts:
        lines.append("")
        lines.append(f"-- burn-rate alerts ({len(timeline.alerts)}) --")
        for alert in timeline.alerts:
            lines.append(
                f"  t={alert['ts']:8.2f}s  class={alert['tenant_class']:<12} "
                f"burn={alert['burn_rate']:.2f} "
                f"({alert['misses']}/{alert['observations']} missed in "
                f"{alert['window_seconds']:.0f}s) query={alert.get('query') or '-'}"
            )

    slowest = _slowest_rows(timeline, top_k)
    if slowest:
        lines.append("")
        lines.append(f"-- top-{min(top_k, len(timeline.roots()))} slowest lifecycles --")
        lines.extend(slowest)

    queue = timeline.series("fleet_queue_depth")
    if queue:
        lines.append("")
        lines.append("-- fleet pressure (per window) --")
        lines.append(
            f"  queue depth  {sparkline([s['max'] for s in queue])} "
            f"peak={max(s['max'] for s in queue):.0f}"
        )
        in_flight = timeline.series("fleet_in_flight")
        if in_flight:
            lines.append(
                f"  in-flight    {sparkline([s['max'] for s in in_flight])} "
                f"peak={max(s['max'] for s in in_flight):.0f}"
            )
        suspended = timeline.series("fleet_suspended")
        if suspended:
            lines.append(
                f"  suspended    {sparkline([s['max'] for s in suspended])} "
                f"peak={max(s['max'] for s in suspended):.0f}"
            )
    return "\n".join(lines)


def render_profile(payload: dict, top: int = 10) -> str:
    """Render a ``riveter-profile/1`` envelope as a terminal report.

    Sections: run header (wall vs virtual totals and the three worker
    phases), the hot-operator table (wall-vs-virtual attribution), the
    per-worker utilization breakdown, and the merged morsel-latency
    histogram.
    """
    # Imported here: ``repro.harness`` pulls in the experiment suite
    # (engine, cloud), which itself imports ``repro.obs``.
    from repro.harness.report import format_profile_operators, format_table

    phases = payload.get("phases", {})
    lines = [
        f"== wall-clock profile: {payload.get('query', '?')} ==",
        f"backend={payload.get('backend', '-')} kernels={payload.get('kernels', '-')} "
        f"workers={payload.get('num_threads', '-')} "
        f"morsel_size={payload.get('morsel_size', '-')}",
        f"wall {payload.get('wall_seconds', 0.0):.3f}s | "
        f"virtual {payload.get('virtual_seconds', 0.0):.2f}s | "
        f"worker phases: compute={phases.get('compute_seconds', 0.0):.3f}s "
        f"queue-wait={phases.get('queue_wait_seconds', 0.0):.3f}s "
        f"ship={phases.get('ship_seconds', 0.0):.3f}s",
    ]

    operators = payload.get("operators", [])
    if operators:
        lines.append("")
        lines.append(
            f"-- hot operators by wall time (top {min(top, len(operators))}) --"
        )
        lines.append(format_profile_operators(payload, top=top))

    workers = payload.get("workers", [])
    if workers:
        lines.append("")
        lines.append("-- worker utilization --")
        rows = []
        for worker in workers:
            util = worker.get("utilization", {})
            rows.append(
                (
                    worker.get("label", "?"),
                    worker.get("pid", "-"),
                    worker.get("morsels", 0),
                    f"{100.0 * util.get('busy', 0.0):.1f}%",
                    f"{100.0 * util.get('queue_wait', 0.0):.1f}%",
                    f"{100.0 * util.get('ship', 0.0):.1f}%",
                    f"{100.0 * util.get('idle', 0.0):.1f}%",
                    f"{worker.get('span_seconds', 0.0):.3f}",
                )
            )
        lines.append(
            format_table(
                ("worker", "pid", "morsels", "busy", "wait", "ship", "idle", "span s"),
                rows,
            )
        )

    latency = payload.get("morsel_latency", {})
    buckets = latency.get("buckets", [])
    counts = latency.get("counts", [])
    if counts and any(counts):
        lines.append("")
        lines.append("-- morsel compute latency (wall) --")
        edges = [f"<={edge:g}s" for edge in buckets] + [
            f">{buckets[-1]:g}s" if buckets else "all"
        ]
        rows = [
            (edge, count)
            for edge, count in zip(edges, counts)
            if count
        ]
        lines.append(format_table(("bucket", "morsels"), rows))

    dropped = payload.get("spans_dropped", 0)
    if dropped:
        lines.append("")
        lines.append(
            f"WARNING: {dropped} per-morsel span(s) dropped from the bounded "
            "buffers; aggregates above still cover every morsel"
        )
    return "\n".join(lines)

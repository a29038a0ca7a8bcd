"""Human-readable observability summary (what the benches print).

:func:`render_report` turns a metrics registry (and optionally the last
run's trace) into a compact text report: counter totals, gauge last
values with series lengths (flagging ring-buffer evictions), histogram
and sketch percentile rows (p50/p95/p99), and a per-actor
compute/communication breakdown.
"""

from __future__ import annotations

from typing import List

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sketch,
    _label_str,
)


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def render_report(
    registry: MetricsRegistry,
    trace=None,
    title: str = "observability report",
) -> str:
    """A text summary of everything the registry (and trace) recorded."""
    lines: List[str] = [f"== {title} =="]
    names = registry.names()
    if not names:
        lines.append("(no metrics recorded — observability disabled?)")
    counters = [registry.get(n) for n in names if isinstance(registry.get(n), Counter)]
    gauges = [registry.get(n) for n in names if isinstance(registry.get(n), Gauge)]
    hists = [registry.get(n) for n in names if isinstance(registry.get(n), Histogram)]
    sketches = [registry.get(n) for n in names if isinstance(registry.get(n), Sketch)]

    if counters:
        lines.append("-- counters --")
        for c in counters:
            parts = [
                f"{_label_str(k) or 'total'}={_fmt(v)}"
                for k, v in sorted(c._values.items())
            ]
            lines.append(f"{c.name}: " + "  ".join(parts))
    if gauges:
        lines.append("-- gauges (last value; series points) --")
        for g in gauges:
            for key in g.label_sets():
                labels = dict(key)
                ts, vs = g.series(**labels)
                last = vs[-1] if vs else g.value(**labels)
                evicted = g.evicted(**labels)
                note = f", {evicted} evicted" if evicted else ""
                lines.append(
                    f"{g.name}{{{_label_str(key)}}}: {_fmt(last)} "
                    f"({len(ts)} points{note})"
                )
    if hists:
        lines.append("-- histograms (count / mean / p50 / p95 / p99 / max) --")
        for h in hists:
            for key in h.label_sets():
                labels = dict(key)
                lines.append(
                    f"{h.name}{{{_label_str(key)}}}: "
                    f"n={h.count(**labels)} mean={h.mean(**labels):.6g} "
                    f"p50={h.quantile(0.5, **labels):.6g} "
                    f"p95={h.quantile(0.95, **labels):.6g} "
                    f"p99={h.quantile(0.99, **labels):.6g} "
                    f"max={h._states[key].max:.6g}"
                )
    if sketches:
        lines.append("-- sketches (count / p50 / p95 / p99) --")
        for s in sketches:
            for key in s.label_sets():
                labels = dict(key)
                lines.append(
                    f"{s.name}{{{_label_str(key)}}}: "
                    f"n={s.count(**labels)} "
                    f"p50={s.quantile(0.5, **labels):.6g} "
                    f"p95={s.quantile(0.95, **labels):.6g} "
                    f"p99={s.quantile(0.99, **labels):.6g}"
                )
            merged = s.merged()
            if merged is not None and len(s.label_sets()) > 1:
                lines.append(
                    f"{s.name}{{merged}}: n={merged.count} "
                    f"p50={merged.quantile(0.5):.6g} "
                    f"p95={merged.quantile(0.95):.6g} "
                    f"p99={merged.quantile(0.99):.6g}"
                )
    if trace is not None:
        lines.extend(_trace_section(trace))
    return "\n".join(lines)


def _trace_section(trace) -> List[str]:
    actors = trace.actors()
    if not actors:
        return []
    lines = ["-- trace breakdown (seconds by span kind) --"]
    for actor in actors:
        parts = [f"{k}={v:.4g}" for k, v in trace.breakdown(actor).items() if v > 0]
        if parts:
            lines.append(f"{actor}: " + "  ".join(parts))
    lines.append(
        f"trace: {len(trace.spans)} spans kept, end_time={trace.end_time:.4g}s"
    )
    return lines

"""Stdlib-only rendering for the live ``watch`` dashboard and HTML timeline.

Two consumers share these helpers:

* ``python -m repro watch`` runs the twin frame by frame and calls
  :func:`render_frame` after each frame (``watch --follow`` after each
  ``monitor.sample`` of a live server's feed) — unicode sparklines of
  the monitor's series plus headline counters, fitting a terminal;
* ``python -m repro watch --html`` calls :func:`render_html` on an
  exported ``timeseries.json`` payload and writes a single
  self-contained HTML file (inline SVG, no external assets, no
  JavaScript dependencies) that any browser can open offline.

Everything here is presentation only: no simulator imports, no state —
input is a :class:`~repro.observability.monitor.TimeSeriesMonitor` (or
its exported dict) and plain numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from .monitor import MONITOR_SERIES, TimeSeriesMonitor

#: Eight-level bar glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _resample(values: Sequence[float], width: int) -> List[float]:
    """Bucket-mean ``values`` down to at most ``width`` points."""
    n = len(values)
    if n <= width:
        return list(values)
    out: List[float] = []
    for i in range(width):
        lo = i * n // width
        hi = max(lo + 1, (i + 1) * n // width)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out

def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline of a series, bucket-averaged to ``width`` cells.

    Flat series render as a run of the lowest glyph; an empty series is
    an empty string.
    """
    points = _resample(values, width)
    if not points:
        return ""
    low = min(points)
    high = max(points)
    span = high - low
    if span <= 0:
        return SPARK_GLYPHS[0] * len(points)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[int((v - low) / span * top)] for v in points
    )

def render_frame(
    monitor: TimeSeriesMonitor,
    now: float,
    horizon: float,
    counters: Optional[Mapping[str, float]] = None,
    width: int = 56,
) -> str:
    """One dashboard frame: progress line, per-series sparklines, counters.

    ``counters`` is an optional name -> value mapping of headline
    figures (completed requests, bytes read, ...) printed under the
    series block.
    """
    pct = min(100.0, now / horizon * 100.0) if horizon > 0 else 100.0
    lines = [
        f"watch  t={now:>10.0f}s / {horizon:.0f}s  ({pct:5.1f}%)  "
        f"samples={len(monitor)}"
        + (
            f"  [downsampled x{2 ** monitor.downsample_halvings}]"
            if monitor.downsample_halvings
            else ""
        )
    ]
    latest = monitor.latest()
    for name in MONITOR_SERIES:
        column = monitor.series.get(name)
        if not column:
            continue
        lines.append(
            f"  {name:<18s} {sparkline(column, width):<{width}s} "
            f"{latest.get(name, 0.0):>10.0f}"
        )
    if counters:
        parts = [f"{k}={v:,.0f}" for k, v in counters.items()]
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)

#: Colors assigned to series in the HTML timeline, cycled in order.
_HTML_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)

def _svg_polyline(
    times: Sequence[float],
    values: Sequence[float],
    w: int,
    h: int,
    color: str,
) -> str:
    """One series as an SVG polyline scaled into a ``w`` x ``h`` box."""
    if not times:
        return ""
    t0, t1 = times[0], times[-1]
    tspan = (t1 - t0) or 1.0
    low = min(values)
    high = max(values)
    vspan = (high - low) or 1.0
    points = " ".join(
        f"{(t - t0) / tspan * w:.1f},{h - (v - low) / vspan * h:.1f}"
        for t, v in zip(times, values)
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{points}" />'
    )

def render_html(payload: Dict[str, Any], title: str = "run timeline") -> str:
    """Self-contained HTML timeline from an exported ``timeseries`` block.

    One labeled inline-SVG strip per series (min/max annotated), plus
    the sampling metadata header. The output embeds everything — no
    scripts, stylesheet links, or fonts — so the file is archivable
    beside the run artifacts it came from.
    """
    times = [float(t) for t in payload.get("times", [])]
    series: Dict[str, List[float]] = {
        str(name): [float(v) for v in column]
        for name, column in payload.get("series", {}).items()
    }
    w, h = 720, 60
    strips: List[str] = []
    ordered = [n for n in MONITOR_SERIES if n in series]
    ordered += [n for n in sorted(series) if n not in MONITOR_SERIES]
    for i, name in enumerate(ordered):
        column = series[name]
        if not column:
            continue
        color = _HTML_COLORS[i % len(_HTML_COLORS)]
        strips.append(
            '<div class="strip">'
            f'<div class="label">{name}'
            f'<span class="range">min {min(column):g} · '
            f'max {max(column):g}</span></div>'
            f'<svg viewBox="0 0 {w} {h}" width="{w}" height="{h}" '
            'preserveAspectRatio="none">'
            f'<rect width="{w}" height="{h}" fill="#fafafa" />'
            + _svg_polyline(times, column, w, h, color)
            + "</svg></div>"
        )
    if times:
        meta = (
            f"{payload.get('samples', len(times))} samples · "
            f"interval {payload.get('interval_seconds', 0):g}s"
        )
        if payload.get("downsample_halvings"):
            meta += (
                f" (downsampled x{2 ** int(payload['downsample_halvings'])})"
            )
        meta += f" · horizon {times[-1]:g}s"
    else:
        meta = "no samples"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 780px; color: #222; }}
h1 {{ font-size: 1.1rem; }}
.meta {{ color: #777; margin-bottom: 1rem; }}
.strip {{ margin-bottom: 0.8rem; }}
.label {{ font-size: 0.8rem; margin-bottom: 2px; }}
.range {{ color: #999; float: right; }}
svg {{ display: block; border: 1px solid #e0e0e0; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="meta">{meta} · schema {payload.get("schema", "?")}</div>
{chr(10).join(strips)}
</body>
</html>
"""

"""Figure renderers: every re-plottable paper figure as SVG.

``render_figures(result, reports, out_dir)`` writes one SVG per figure
whose data the run's reports expose as series — the CDFs, histograms,
time series and maps of Figures 2–5, 7–15 — for each report that has a
renderer. It computes nothing: ``python -m repro.experiments
--figures DIR`` hands it the reports it has just printed. Only the
Fig. 12 dot map reads ``result`` itself, for the hotspots' asserted
locations in the world half. Rendering is dependency-free (see
:mod:`repro.experiments.svg`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Sequence, Union

from repro.experiments.registry import ExperimentReport
from repro.experiments.svg import Chart
from repro.geo.landmass import _US_BOUNDARY

__all__ = ["render_figures", "FIGURE_RENDERERS"]

#: (lon, lat) US outline for map figures.
_US_OUTLINE = [(lon, lat) for lat, lon in _US_BOUNDARY]

_US_DOMAIN = (-126.0, -66.0, 24.0, 50.0)


def _fig02(report, result) -> Dict[str, str]:
    histogram = dict(report.series["moves_histogram"])
    chart = Chart(title="Fig. 2 — Location changes per hotspot",
                  x_label="moves", y_label="hotspots")
    max_moves = max(histogram)
    chart.set_domain(-0.5, max_moves + 0.5, 0.0, max(histogram.values()) * 1.05)
    chart.bars(list(histogram.keys()), list(histogram.values()))
    return {"fig02": chart.render()}


def _fig03(report, result) -> Dict[str, str]:
    distances = report.series["distance_cdf_km"]
    out: Dict[str, str] = {}

    cdf = Chart(title="Fig. 3a — CDF of move distances",
                x_label="distance (km)", y_label="CDF", log_x=True)
    positive = [max(d, 1e-3) for d in distances]
    cdf.set_domain(1e-3, max(positive) * 1.1, 0.0, 1.0)
    cdf.cdf(positive)
    out["fig03a"] = cdf.render()

    chart = Chart(width=720, height=460,
                  title="Fig. 3c — moves >500 km", x_label="lon", y_label="lat")
    chart.set_domain(*_US_DOMAIN)
    chart.outline(_US_OUTLINE)
    for (lat1, lon1), (lat2, lon2) in report.series["long_moves"]:
        for lon, lat, color in ((lon1, lat1, "#1f77b4"), (lon2, lat2, "#d62728")):
            if _US_DOMAIN[0] <= lon <= _US_DOMAIN[1] and _US_DOMAIN[2] <= lat <= _US_DOMAIN[3]:
                chart.scatter([(lon, lat)], color=color, r=2.5)
    out["fig03c"] = chart.render()
    return out


def _fig04(report, result) -> Dict[str, str]:
    intervals = report.series["interval_blocks"]
    chart = Chart(title="Fig. 4 — blocks between relocations",
                  x_label="blocks", y_label="CDF", log_x=True)
    chart.set_domain(1.0, max(intervals) * 1.1, 0.0, 1.0)
    chart.cdf([max(i, 1) for i in intervals])
    for anchor, label in ((1440, "1 day"), (7 * 1440, "1 week"),
                          (30 * 1440, "1 month")):
        chart.series([anchor, anchor], [0.0, 1.0], color="#aaa",
                     dash="4,3", width=0.8)
    return {"fig04": chart.render()}


def _fig05(report, result) -> Dict[str, str]:
    cumulative = report.series["cumulative_connected"]
    daily = report.series["daily_added"]
    online = report.series["online"]
    days = list(range(len(cumulative)))
    chart = Chart(title="Fig. 5 — network growth", x_label="day",
                  y_label="hotspots")
    chart.set_domain(0, len(days), 0.0, max(cumulative) * 1.05)
    chart.series(days, cumulative, color="#1f77b4", label="connected")
    chart.series(days[: len(online)], online, color="#2ca02c", label="online")
    scale = max(cumulative) / max(max(daily), 1)
    chart.series(days[: len(daily)], [d * scale * 0.9 for d in daily],
                 color="#d62728", width=0.8, label="daily (scaled)")
    return {"fig05": chart.render()}


def _fig07(report, result) -> Dict[str, str]:
    out: Dict[str, str] = {}
    histogram = dict(report.series["transfers_per_hotspot"])
    bars = Chart(title="Fig. 7a — ownership transfers per hotspot",
                 x_label="transfers", y_label="hotspots")
    bars.set_domain(0.5, max(histogram) + 0.5, 0.0,
                    max(histogram.values()) * 1.05)
    bars.bars(list(histogram.keys()), list(histogram.values()))
    out["fig07a"] = bars.render()

    timeline = report.series["transfers_over_time"]
    if timeline:
        series = Chart(title="Fig. 7c — transfers over time",
                       x_label="day", y_label="transfers")
        xs = [day for day, _ in timeline]
        ys = [count for _, count in timeline]
        series.set_domain(min(xs), max(xs) + 1, 0.0, max(ys) * 1.1)
        series.series(xs, ys)
        out["fig07c"] = series.render()
    return out


def _fig08(report, result) -> Dict[str, str]:
    rows = report.series["packets_by_close"]
    chart = Chart(width=720, title="Fig. 8 — packets per channel closing",
                  x_label="block", y_label="packets")
    max_packets = max((p for _, _, p in rows), default=1)
    max_block = max((b for b, _, _ in rows), default=1)
    chart.set_domain(0, max_block * 1.02, 0.5, max_packets * 1.2)
    console = [(b, max(p, 1)) for b, oui, p in rows if oui in (1, 2)]
    third = [(b, max(p, 1)) for b, oui, p in rows if oui > 2]
    chart.scatter(console, color="#1f77b4", r=1.5, label="Console (OUI 1/2)")
    chart.scatter(third, color="#d62728", r=1.5, label="third-party OUIs")
    return {"fig08": chart.render()}


def _fig09(report, result) -> Dict[str, str]:
    counts = [count for _, count in report.series["asn_distribution"]]
    chart = Chart(title="Fig. 9 — hotspots per ASN (ranked)",
                  x_label="ASN rank", y_label="hotspots")
    chart.set_domain(0, len(counts) + 1, 0.0, max(counts) * 1.05)
    chart.bars(list(range(1, len(counts) + 1)), counts, bar_width=max(
        1.0, 500.0 / max(len(counts), 1)
    ))
    return {"fig09": chart.render()}


def _fig10(report, result) -> Dict[str, str]:
    histogram = dict(report.series["relay_load_histogram"])
    chart = Chart(title="Fig. 10 — relay nodes with n peers",
                  x_label="peers relayed", y_label="relay nodes")
    chart.set_domain(0.5, max(histogram) + 0.5, 0.0,
                     max(histogram.values()) * 1.05)
    chart.bars(list(histogram.keys()), list(histogram.values()))
    return {"fig10": chart.render()}


def _fig11(report, result) -> Dict[str, str]:
    actual = report.series["actual_km"]
    chart = Chart(title="Fig. 11 — relay↔peer distance",
                  x_label="distance (km)", y_label="CDF")
    chart.set_domain(0.0, max(actual) * 1.05, 0.0, 1.0)
    chart.cdf(actual, label="actual")
    return {"fig11": chart.render()}


def _fig12(report, result) -> Dict[str, str]:
    chart = Chart(width=720, height=460,
                  title="Fig. 12a — hotspot dot map", x_label="lon",
                  y_label="lat")
    chart.set_domain(*_US_DOMAIN)
    chart.outline(_US_OUTLINE)
    online, offline = [], []
    for hotspot in result.world.hotspots.values():
        loc = hotspot.asserted_location
        if loc is None:
            continue
        if not (_US_DOMAIN[0] <= loc.lon <= _US_DOMAIN[1]
                and _US_DOMAIN[2] <= loc.lat <= _US_DOMAIN[3]):
            continue
        (online if hotspot.online else offline).append((loc.lon, loc.lat))
    chart.scatter(online, color="#2ca02c", r=1.6, label="online")
    chart.scatter(offline, color="#d62728", r=1.6, label="offline")
    return {"fig12a": chart.render()}


def _fig13(report, result) -> Dict[str, str]:
    distances = report.series["distances_km"]
    chart = Chart(title="Fig. 13 — valid witness distances",
                  x_label="distance (km)", y_label="CDF", log_x=True)
    chart.set_domain(0.1, max(distances) * 1.1, 0.0, 1.0)
    chart.cdf([max(d, 0.1) for d in distances])
    chart.series([25.0, 25.0], [0.0, 1.0], color="#aaa", dash="4,3",
                 width=0.8, label="25 km cutoff")
    return {"fig13": chart.render()}


def _fig14(report, result) -> Dict[str, str]:
    rssis = [r for r in report.series["rssis_dbm"] if r < 0]
    chart = Chart(title="Fig. 14 — witness RSSI", x_label="RSSI (dBm)",
                  y_label="CDF")
    chart.set_domain(min(rssis), max(rssis) + 1.0, 0.0, 1.0)
    chart.cdf(rssis)
    return {"fig14": chart.render()}


FIGURE_RENDERERS: Dict[str, Callable] = {
    "fig02": _fig02,
    "fig03": _fig03,
    "fig04": _fig04,
    "fig05": _fig05,
    "fig07": _fig07,
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
}


def render_figures(
    result,
    reports: Sequence[ExperimentReport],
    out_dir: Union[str, Path],
) -> List[Path]:
    """Render the figures of ``reports``, computed on ``result``, to
    ``out_dir`` as SVG files; a report without a figure is skipped."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for report in reports:
        renderer = FIGURE_RENDERERS.get(report.experiment_id)
        if renderer is None:
            continue
        for name, svg_text in renderer(report, result).items():
            path = out / f"{name}.svg"
            path.write_text(svg_text)
            written.append(path)
    return written

"""CSV time-series IO and deterministic SVG line plots.

Plots are rendered straight from CSV files (never from in-memory state) by
a small hand-rolled SVG writer, so identical input bytes always produce
identical output bytes: no timestamps, no randomized ids, fixed float
formatting.  Each series draws a line plus a +/- 1 standard-error band
when an error column is present.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["PlotError", "PLOT_KINDS", "write_timeseries_csv", "read_timeseries", "render_plot"]


class PlotError(ValueError):
    pass


# kind -> (x column, y column, y-error column, x label, y label)
PLOT_KINDS = {
    "energy-time": ("time", "energy_mean", "energy_se", "Lindblad time", "energy"),
    "overlap-time": ("time", "overlap_mean", "overlap_se", "Lindblad time", "ground overlap"),
    "energy-htime": ("h_time", "energy_mean", "energy_se", "Hamiltonian simulation time", "energy"),
    "overlap-htime": (
        "h_time",
        "overlap_mean",
        "overlap_se",
        "Hamiltonian simulation time",
        "ground overlap",
    ),
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
# the characters outside XML 1.0's Char production: the C0 controls but tab,
# LF and CR, the lone surrogates (which UTF-8 cannot encode), U+FFFE, U+FFFF
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def not_xml_text(text: str) -> bool:
    """Whether ``text`` holds a character that an XML 1.0 document cannot carry."""
    return _NOT_XML_CHAR.search(text) is not None


def write_csv(path: str | Path, header, rows) -> None:
    """Write a CSV table: the header, then one line per row.  csv writes a
    Python float as its ``repr``, so a float round-trips exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON: sorted keys, two-space indents, a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_timeseries_csv(record, path: str | Path) -> None:
    """Write a run's ``channel.SimulationRecord`` as CSV, one row per recorded step."""
    write_csv(path, record.COLUMNS, record.rows())


def read_timeseries(path: str | Path) -> dict:
    """Load a run CSV; non-UTF-8 text, a field beyond the csv size limit, missing
    columns, an empty table, and a short row or a bad or non-finite cell are errors."""
    from .channel import SimulationRecord  # kept off the random-coupling import path

    path = Path(path)
    if not path.exists():
        raise PlotError(f"no such CSV: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            columns, rows = reader.fieldnames, list(reader)
    except UnicodeDecodeError:
        raise PlotError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise PlotError(f"{path}: {exc}") from None
    if columns is None:
        raise PlotError(f"{path}: empty CSV")
    missing = [c for c in SimulationRecord.COLUMNS if c not in columns]
    if missing:
        raise PlotError(f"{path}: missing column(s) {missing}")
    if not rows:
        raise PlotError(f"{path}: no data rows")
    out = {}
    for c in columns:
        try:
            out[c] = np.array([float(r[c]) for r in rows])
        except (TypeError, ValueError):  # a short row reads None
            raise PlotError(f"{path}: column {c!r} has a missing or non-numeric cell") from None
        if not np.isfinite(out[c]).all():
            raise PlotError(f"{path}: column {c!r} has a non-finite cell")
    return out


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """The multiples of a round step in [lo, hi], a range ``_axis_range`` drew."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag)
    last = math.floor((hi + 1e-12 * span) / step)
    return [round(k * step, 12) for k in range(math.ceil(lo / step), last + 1)]


def _axis_range(values: np.ndarray, pad: float) -> tuple[float, float]:
    """The drawn range of ``values``, ``pad`` of their span added at each end; values flat
    to within the ticks' 12-digit rounding get a width of max(1, their magnitude / 10)."""
    lo, hi = float(values.min()), float(values.max())
    mag = max(abs(lo), abs(hi))
    if hi - lo <= 1e-12 * max(mag, 1.0):
        return lo - max(mag / 20, 0.5), hi + max(mag / 20, 0.5)
    return lo - pad * (hi - lo), hi + pad * (hi - lo)


def _num(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class _Frame:
    x0: float = 72.0
    y0: float = 48.0
    width: float = 520.0
    height: float = 360.0

    def map_x(self, v, lo, hi):
        return self.x0 + (v - lo) / (hi - lo) * self.width

    def map_y(self, v, lo, hi):
        return self.y0 + self.height - (v - lo) / (hi - lo) * self.height


def render_plot(
    csv_paths: list[str | Path],
    kind: str,
    out_path: str | Path,
    labels: list[str] | None = None,
) -> None:
    """Render one plot kind for one or more run CSVs onto a single canvas.
    The legend labels, by default the CSVs' stems, are XML-escaped; one that
    XML 1.0 cannot carry (:func:`not_xml_text`) is refused."""
    if kind not in PLOT_KINDS:
        raise PlotError(f"unknown plot kind {kind!r}; choose from {sorted(PLOT_KINDS)}")
    xcol, ycol, ecol, xlabel, ylabel = PLOT_KINDS[kind]
    if labels is None:
        labels = [Path(p).stem for p in csv_paths]
    if len(labels) != len(csv_paths):
        raise PlotError("one label per CSV required")
    bad = [label for label in labels if not_xml_text(label)]
    if bad:
        raise PlotError(f"legend label {bad[0]!r} holds a character that XML 1.0 cannot carry")
    series = [read_timeseries(p) for p in csv_paths]

    xs = np.concatenate([s[xcol] for s in series])
    with np.errstate(over="ignore"):  # a band beyond the float range is refused below
        ys = np.concatenate([np.concatenate([s[ycol] - s[ecol], s[ycol] + s[ecol]]) for s in series])
    (xlo, xhi), (ylo, yhi) = _axis_range(xs, 0.0), _axis_range(ys, 0.05)
    if not math.isfinite(xhi - xlo + yhi - ylo):
        raise PlotError(f"the values of the {kind} plot span more than the float range")

    fr = _Frame()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="660" height="470" '
        'viewBox="0 0 660 470" font-family="sans-serif" font-size="12">',
        '<rect x="0" y="0" width="660" height="470" fill="white"/>',
        f'<rect x="{_num(fr.x0)}" y="{_num(fr.y0)}" width="{_num(fr.width)}" '
        f'height="{_num(fr.height)}" fill="none" stroke="black"/>',
    ]
    for t in _nice_ticks(xlo, xhi):
        px = fr.map_x(t, xlo, xhi)
        parts.append(
            f'<line x1="{_num(px)}" y1="{_num(fr.y0 + fr.height)}" x2="{_num(px)}" '
            f'y2="{_num(fr.y0 + fr.height + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_num(px)}" y="{_num(fr.y0 + fr.height + 18)}" '
            f'text-anchor="middle">{_num(t)}</text>'
        )
    for t in _nice_ticks(ylo, yhi):
        py = fr.map_y(t, ylo, yhi)
        parts.append(
            f'<line x1="{_num(fr.x0 - 5)}" y1="{_num(py)}" x2="{_num(fr.x0)}" '
            f'y2="{_num(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_num(fr.x0 - 8)}" y="{_num(py + 4)}" text-anchor="end">{_num(t)}</text>'
        )
    parts.append(
        f'<text x="{_num(fr.x0 + fr.width / 2)}" y="456" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_num(fr.y0 + fr.height / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_num(fr.y0 + fr.height / 2)})">{ylabel}</text>'
    )

    for i, (s, label) in enumerate(zip(series, labels)):
        color = _PALETTE[i % len(_PALETTE)]
        x = s[xcol]
        y = s[ycol]
        err = s[ecol]
        if np.any(err > 0):
            upper = [(fr.map_x(a, xlo, xhi), fr.map_y(b + e, ylo, yhi)) for a, b, e in zip(x, y, err)]
            lower = [(fr.map_x(a, xlo, xhi), fr.map_y(b - e, ylo, yhi)) for a, b, e in zip(x, y, err)]
            pts = " ".join(f"{_num(a)},{_num(b)}" for a, b in upper + lower[::-1])
            parts.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.2" stroke="none"/>')
        pts = " ".join(
            f"{_num(fr.map_x(a, xlo, xhi))},{_num(fr.map_y(b, ylo, yhi))}" for a, b in zip(x, y)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = fr.y0 + 16 + 16 * i
        parts.append(
            f'<line x1="{_num(fr.x0 + fr.width - 150)}" y1="{_num(ly - 4)}" '
            f'x2="{_num(fr.x0 + fr.width - 126)}" y2="{_num(ly - 4)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        label = label.translate(_XML_ESCAPES)
        parts.append(f'<text x="{_num(fr.x0 + fr.width - 120)}" y="{_num(ly)}">{label}</text>')

    parts.append("</svg>")
    Path(out_path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))

"""Static SVG line charts, one polyline per data series. No scripting."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

WIDTH = 720
HEIGHT = 480
MARGIN = {"left": 70, "right": 160, "top": 40, "bottom": 55}
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
TICKS = 5


def _nice_span(lo: float, hi: float) -> tuple[float, float]:
    """``[lo, hi]`` padded by a twentieth of its width a side; a zero width
    by a tenth of ``|lo|``, or by 1 where that rounds to 0, so never zero."""
    pad = (hi - lo) * 0.05 if lo != hi else abs(lo) * 0.1 or 1.0
    return lo - pad, hi + pad


def write_line_chart(
    path: Path,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> None:
    """Write an SVG chart of each series against xs."""
    if not xs or not series:
        raise ValueError("chart needs at least one point and one series")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length does not match x values")

    x_lo, x_hi = _nice_span(min(xs), max(xs))
    all_y = [y for ys in series.values() for y in ys]
    y_lo, y_hi = _nice_span(min(all_y), max(all_y))

    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def px(x: float) -> float:
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN["top"] + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )

    axis_x0, axis_y0 = MARGIN["left"], MARGIN["top"] + plot_h
    parts.append(
        f'<line x1="{axis_x0}" y1="{axis_y0}" x2="{axis_x0 + plot_w}" y2="{axis_y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{axis_x0}" y1="{MARGIN["top"]}" x2="{axis_x0}" y2="{axis_y0}" stroke="black"/>'
    )
    for i in range(TICKS + 1):
        fx = x_lo + (x_hi - x_lo) * i / TICKS
        fy = y_lo + (y_hi - y_lo) * i / TICKS
        parts.append(
            f'<line x1="{px(fx):.1f}" y1="{axis_y0}" x2="{px(fx):.1f}" y2="{axis_y0 + 5}" stroke="black"/>'
            f'<text x="{px(fx):.1f}" y="{axis_y0 + 18}" text-anchor="middle">{fx:g}</text>'
        )
        parts.append(
            f'<line x1="{axis_x0 - 5}" y1="{py(fy):.1f}" x2="{axis_x0}" y2="{py(fy):.1f}" stroke="black"/>'
            f'<text x="{axis_x0 - 8}" y="{py(fy) + 4:.1f}" text-anchor="end">{fy:g}</text>'
        )
    parts.append(
        f'<text x="{axis_x0 + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN["top"] + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN["top"] + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )

    legend_x = MARGIN["left"] + plot_w + 12
    for idx, (name, ys) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = MARGIN["top"] + 14 + idx * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{legend_x + 28}" y="{ly}">{_escape(name)}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

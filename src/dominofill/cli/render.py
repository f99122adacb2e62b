"""Rendering: SVG for plane tilings, ASCII strips for the line.

Windows past the cell cap are not drawn tile-by-tile; a downsampled density
map (per-bin covered fraction, area accumulated at each anchor's bin) is
emitted instead so very large runs still produce a picture.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Box
from ..sft import Tiling

MAX_DRAWN_CELLS = 2_000_000
DENSITY_BINS = 256

PALETTE = [
    "#f3c300", "#875692", "#f38400", "#a1caf1", "#be0032", "#c2b280",
    "#848482", "#008856", "#e68fac", "#0067a5", "#f99379", "#604e97",
    "#f6a600", "#b3446c", "#dcd300", "#882d17", "#8db600", "#654522",
    "#e25822", "#2b3d26",
]


class RenderError(ValueError):
    pass


def _svg_header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">\n'
    )


def render_svg(tiling: Tiling, cell_px: float = 8.0) -> str:
    """Placements as colored rectangles; axis 0 is x, axis 1 grows downward."""
    if tiling.dim != 2:
        raise RenderError(f"SVG rendering needs d=2, got d={tiling.dim}")
    window = tiling.window or _bounding_window(tiling)
    if window.volume > MAX_DRAWN_CELLS:
        return _render_density(tiling, window)
    ax, ay = window.anchor
    w = window.shape[0] * cell_px
    h = window.shape[1] * cell_px
    parts = [_svg_header(w, h)]
    parts.append(f'<rect width="{w:g}" height="{h:g}" fill="#1a1a1a"/>\n')
    for code, anchor, (sx, sy) in zip(tiling.codes, tiling.anchors, tiling.placement_shapes()):
        x = (int(anchor[0]) - ax) * cell_px
        y = (int(anchor[1]) - ay) * cell_px
        color = PALETTE[int(code) % len(PALETTE)]
        parts.append(
            f'<rect x="{x:g}" y="{y:g}" width="{sx * cell_px:g}" height="{sy * cell_px:g}" '
            f'fill="{color}" stroke="#1a1a1a" stroke-width="{cell_px / 10:g}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _bounding_window(tiling: Tiling) -> Box:
    if len(tiling) == 0:
        return Box((0,) * max(tiling.dim, 1), (1,) * max(tiling.dim, 1))
    lo = np.min(tiling.anchors, axis=0)
    hi = np.max(tiling.anchors + tiling.placement_shapes(), axis=0)
    return Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi - lo))


def _render_density(tiling: Tiling, window: Box) -> str:
    bins = (
        min(DENSITY_BINS, window.shape[0]),
        min(DENSITY_BINS, window.shape[1]),
    )
    cell_w = window.shape[0] / bins[0]
    cell_h = window.shape[1] / bins[1]
    mass = np.zeros(bins, dtype=np.float64)
    areas = np.prod(tiling.placement_shapes(), axis=1).astype(np.float64)
    bx = ((tiling.anchors[:, 0] - window.anchor[0]) / cell_w).astype(np.int64)
    by = ((tiling.anchors[:, 1] - window.anchor[1]) / cell_h).astype(np.int64)
    keep = (bx >= 0) & (bx < bins[0]) & (by >= 0) & (by < bins[1])
    np.add.at(mass, (bx[keep], by[keep]), areas[keep])
    density = mass / (cell_w * cell_h)
    px = 4.0
    w, h = bins[0] * px, bins[1] * px
    parts = [_svg_header(w, h)]
    parts.append(f'<rect width="{w:g}" height="{h:g}" fill="#1a1a1a"/>\n')
    for i in range(bins[0]):
        for j in range(bins[1]):
            d = min(float(density[i, j]), 1.0)
            if d <= 0:
                continue
            parts.append(
                f'<rect x="{i * px:g}" y="{j * px:g}" width="{px:g}" height="{px:g}" '
                f'fill="#0067a5" fill-opacity="{d:.3f}"/>\n'
            )
    parts.append(
        f'<!-- density map: {len(tiling)} placements over {window.volume} cells -->\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_ascii(tiling: Tiling, width: int = 100) -> str:
    """One character per cell for d=1: digits for small tiles, marks for bricks."""
    if tiling.dim != 1:
        raise RenderError(f"ASCII rendering needs d=1, got d={tiling.dim}")
    window = tiling.window or _bounding_window(tiling)
    if window.shape[0] > MAX_DRAWN_CELLS:
        raise RenderError(
            f"ASCII rendering draws at most {MAX_DRAWN_CELLS} cells, window has {window.shape[0]}"
        )
    cells = np.full(window.shape[0], ".", dtype="<U1")
    order = tiling.tile_order
    marks = "#%@&*+"
    for code, anchor, (extent,) in zip(tiling.codes, tiling.anchors, tiling.placement_shapes()):
        tile = order[int(code)]
        start = int(anchor[0]) - window.anchor[0]
        if isinstance(tile, int):
            ch = str(tile % 10)
        else:
            large_rank = sum(1 for t in order[: int(code)] if not isinstance(t, int))
            ch = marks[large_rank % len(marks)]
        lo = max(start, 0)
        hi = min(start + extent, window.shape[0])
        cells[lo:hi] = ch
    text = "".join(cells)
    lines = [text[i : i + width] for i in range(0, len(text), width)]
    return "\n".join(lines) + "\n"

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
CELL_PX = 8.0  # the side of one cell in the SVG, in px
ASCII_WIDTH = 100  # cells per line of the ASCII strip
BRICK_MARKS = "#%@&*+"

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


def render_svg(tiling: Tiling) -> str:
    """Placements as colored rectangles; axis 0 is x, axis 1 grows downward."""
    if tiling.dim != 2:
        raise RenderError(f"SVG rendering needs d=2, got d={tiling.dim}")
    window = tiling.window or _bounding_window(tiling)
    if window.volume > MAX_DRAWN_CELLS:
        return _render_density(tiling, window)
    ax, ay = window.anchor
    w = window.shape[0] * CELL_PX
    h = window.shape[1] * CELL_PX
    parts = [_svg_header(w, h)]
    parts.append(f'<rect width="{w:g}" height="{h:g}" fill="#1a1a1a"/>\n')
    shapes = tiling.shape_table[tiling.codes]
    for code, anchor, (sx, sy) in zip(tiling.codes, tiling.anchors, shapes):
        x = (int(anchor[0]) - ax) * CELL_PX
        y = (int(anchor[1]) - ay) * CELL_PX
        color = PALETTE[int(code) % len(PALETTE)]
        parts.append(
            f'<rect x="{x:g}" y="{y:g}" width="{sx * CELL_PX:g}" height="{sy * CELL_PX:g}" '
            f'fill="{color}" stroke="#1a1a1a" stroke-width="{CELL_PX / 10:g}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _bounding_window(tiling: Tiling) -> Box:
    if len(tiling) == 0:
        return Box((0,) * max(tiling.dim, 1), (1,) * max(tiling.dim, 1))
    lo = np.min(tiling.anchors, axis=0)
    hi = np.max(tiling.anchors + tiling.shape_table[tiling.codes], axis=0)
    return Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi - lo))


def _render_density(tiling: Tiling, window: Box) -> str:
    bins = (
        min(DENSITY_BINS, window.shape[0]),
        min(DENSITY_BINS, window.shape[1]),
    )
    cell_w = window.shape[0] / bins[0]
    cell_h = window.shape[1] / bins[1]
    areas = np.prod(tiling.shape_table, axis=1).astype(np.float64)[tiling.codes]
    # Floored, so an anchor just left of or above the window falls in no bin.
    bx = np.floor((tiling.anchors[:, 0] - window.anchor[0]) / cell_w).astype(np.int64)
    by = np.floor((tiling.anchors[:, 1] - window.anchor[1]) / cell_h).astype(np.int64)
    keep = (bx >= 0) & (bx < bins[0]) & (by >= 0) & (by < bins[1])
    flat = bx[keep] * bins[1] + by[keep]
    mass = np.bincount(flat, weights=areas[keep], minlength=bins[0] * bins[1]).reshape(bins)
    density = mass / (cell_w * cell_h)
    px = 4.0
    w, h = bins[0] * px, bins[1] * px
    parts = [_svg_header(w, h)]
    parts.append(f'<rect width="{w:g}" height="{h:g}" fill="#1a1a1a"/>\n')
    # The bins with mass, in C order, as Python ints and floats: numpy
    # scalars format several times slower.
    filled = np.nonzero(density > 0)
    for i, j, d in zip(*(a.tolist() for a in filled), np.minimum(density[filled], 1.0).tolist()):
        parts.append(
            f'<rect x="{i * px:g}" y="{j * px:g}" width="{px:g}" height="{px:g}" '
            f'fill="#0067a5" fill-opacity="{d:.3f}"/>\n'
        )
    parts.append(
        f'<!-- density map: {len(tiling)} placements over {window.volume} cells -->\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_ascii(tiling: Tiling) -> str:
    """One character per cell for d=1: digits for small tiles, marks for bricks."""
    if tiling.dim != 1:
        raise RenderError(f"ASCII rendering needs d=1, got d={tiling.dim}")
    window = tiling.window or _bounding_window(tiling)
    if window.shape[0] > MAX_DRAWN_CELLS:
        raise RenderError(
            f"ASCII rendering draws at most {MAX_DRAWN_CELLS} cells, window has {window.shape[0]}"
        )
    cells = np.full(window.shape[0], ".", dtype="<U1")
    marks, bricks = [], 0  # a small tile's digit; each brick its own mark, in tile order
    for tile in tiling.tile_order:
        if isinstance(tile, int):
            marks.append(str(tile % 10))
        else:
            marks.append(BRICK_MARKS[bricks % len(BRICK_MARKS)])
            bricks += 1
    extents = tiling.shape_table[tiling.codes, 0]
    for code, anchor, extent in zip(tiling.codes.tolist(), tiling.anchors[:, 0].tolist(),
                                    extents.tolist()):
        start = anchor - window.anchor[0]
        lo, hi = max(start, 0), min(start + extent, window.shape[0])
        if lo < hi:  # else the placement lies wholly outside the window
            cells[lo:hi] = marks[code]
    text = "".join(cells)
    lines = [text[i : i + ASCII_WIDTH] for i in range(0, len(text), ASCII_WIDTH)]
    return "\n".join(lines) + "\n"

"""Plain PBM (P1) reading and writing for binary images and brushes.

Black pixels become points.  Pixel (row, col) maps to the vector
(col - oc, or - row) for an origin pixel (oc, or): x grows rightwards
and y grows upwards, so "one below" is (0, -1).  Plain images anchor the
origin at the top-left corner; structuring elements default to the floor
of the raster center.  Either default is overridden by a comment line of
the form `# origin COL ROW`.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError, TooLarge
from .morphology import PointSet

# Largest raster read or written.  format_pbm fills the whole grid, and an
# origin far from the points widens the grid without bound.  A raster read
# is refused from its header, as morph's output canvas contains its image's.
# 2^20 pixels take about 0.01 s and 2 MB of grid in any shape (see README).
MAX_PIXELS = 1 << 20


def _check_pixels(width: int, height: int) -> None:
    if width * height > MAX_PIXELS:
        raise TooLarge(f"{width}x{height} raster exceeds the cap of {MAX_PIXELS} pixels")


# A comment runs from '#' to its line end: any `str.splitlines` boundary.
_COMMENT = re.compile(r"#([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)")


def _tokenize(text: str):
    """PBM tokens with comments stripped, and the last origin comment."""
    origin = None

    def strip(match) -> str:
        nonlocal origin
        comment = match[1].strip()
        parts = comment.split()
        if parts[:1] == ["origin"]:
            try:
                _, col, row = parts
                origin = (int(col), int(row))
            except ValueError:
                raise FormatError(f"malformed origin comment {comment!r}") from None
        return ""

    return _COMMENT.sub(strip, text).split(), origin


def parse_pbm_with_canvas(
    text: str, *, center_origin: bool = False
) -> tuple[PointSet, tuple[int, int, int, int]]:
    """Parse a P1 file into (points, canvas).

    The canvas is the raster extent in origin-relative pixel coordinates
    (min_col, min_row, max_col, max_row); feeding it back to format_pbm
    reproduces the input framing.
    """
    tokens, origin = _tokenize(text)
    if not tokens or tokens[0] != "P1":
        raise FormatError("expected a plain PBM file (magic P1)")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed PBM header: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError("PBM dimensions must be positive")
    _check_pixels(width, height)
    # One byte per bit, less "0", so other bytes wrap above 1; non-ASCII encodes as "?".
    bits = np.frombuffer("".join(tokens[3:]).encode("ascii", "replace"), np.uint8) - ord("0")
    if bits.size != width * height or (bits > 1).any():
        raise FormatError(f"expected {width * height} bits of 0/1 data, got {bits.size}")
    if origin is None:
        origin = ((width - 1) // 2, (height - 1) // 2) if center_origin else (0, 0)
    oc, orow = origin
    rows, cols = np.nonzero(bits.reshape(height, width))
    points = zip((cols - oc).tolist(), (orow - rows).tolist())
    canvas = (-oc, -orow, width - 1 - oc, height - 1 - orow)
    return PointSet(2, frozenset(points)), canvas


def read_pbm(path, *, center_origin: bool = False) -> PointSet:
    return read_pbm_with_canvas(path, center_origin=center_origin)[0]


def read_pbm_with_canvas(
    path, *, center_origin: bool = False
) -> tuple[PointSet, tuple[int, int, int, int]]:
    with open(path, encoding="ascii") as fh:
        return parse_pbm_with_canvas(fh.read(), center_origin=center_origin)


def format_pbm(points: PointSet, *, canvas: tuple[int, int, int, int] | None = None) -> str:
    """Render a 2-d point set as plain PBM.

    `canvas` is (min_col, min_row, max_col, max_row) in pixel coordinates
    relative to the world origin; it is widened to fit every point.  The
    written origin comment records where the world origin sits in the
    output raster.
    """
    if points.dim != 2:
        raise FormatError("PBM output needs a 2-d point set")
    rows = [-y for _, y in points.points]
    cols = [x for x, _ in points.points]
    if canvas is None:
        canvas = (0, 0, 0, 0)
    min_col = min([canvas[0], *cols]) if cols else canvas[0]
    min_row = min([canvas[1], *rows]) if rows else canvas[1]
    max_col = max([canvas[2], *cols]) if cols else canvas[2]
    max_row = max([canvas[3], *rows]) if rows else canvas[3]
    width = max_col - min_col + 1
    height = max_row - min_row + 1
    _check_pixels(width, height)
    # One cell per pixel: its bit, then a space, or a newline after every 34th
    # pixel of a row (34 fill 67 of the 70 columns allowed) and at its end.
    grid = np.full((height * width, 2), (ord("0"), ord(" ")), np.uint8)
    grid[[(-y - min_row) * width + x - min_col for x, y in points.points], 0] = ord("1")
    grid = grid.reshape(height, width, 2)
    grid[:, 33::34, 1] = grid[:, -1, 1] = ord("\n")
    header = f"P1\n# origin {-min_col} {-min_row}\n{width} {height}\n"
    return header + grid.tobytes().decode("ascii")


def write_pbm(path, points: PointSet, *, canvas: tuple[int, int, int, int] | None = None) -> None:
    text = format_pbm(points, canvas=canvas)  # a refused raster leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


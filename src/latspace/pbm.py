"""Plain PBM (P1) reading and writing for binary images and brushes.

Black pixels become points.  Pixel (row, col) maps to the vector
(col - oc, or - row) for an origin pixel (oc, or): x grows rightwards
and y grows upwards, so "one below" is (0, -1).  Plain images anchor the
origin at the top-left corner; structuring elements default to the floor
of the raster center.  Either default is overridden by a comment line of
the form `# origin COL ROW`.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, TooLarge
from .morphology import PointSet

# Largest raster format_pbm writes.  It fills the whole grid, and an origin
# far from the points widens the grid without bound.  2^20 pixels take
# about 0.01 s and 2 MB of grid in any shape (see README).
MAX_PIXELS = 1 << 20


def _tokenize(text: str):
    """PBM tokens with comments stripped; also collects origin comments."""
    origin = None
    tokens: list[str] = []
    for line in text.splitlines():
        body, _, comment = line.partition("#")
        comment = comment.strip()
        if comment.startswith("origin"):
            parts = comment.split()
            if len(parts) != 3:
                raise FormatError(f"malformed origin comment {comment!r}")
            try:
                origin = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise FormatError(f"malformed origin comment {comment!r}") from None
        tokens.extend(body.split())
    return tokens, origin


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
        bits = "".join(tokens[3:])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed PBM header: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError("PBM dimensions must be positive")
    if len(bits) != width * height or set(bits) - {"0", "1"}:
        raise FormatError(
            f"expected {width * height} bits of 0/1 data, got {len(bits)}"
        )
    if origin is None:
        origin = ((width - 1) // 2, (height - 1) // 2) if center_origin else (0, 0)
    oc, orow = origin
    points = set()
    for row in range(height):
        for col in range(width):
            if bits[row * width + col] == "1":
                points.add((col - oc, orow - row))
    canvas = (-oc, -orow, width - 1 - oc, height - 1 - orow)
    return PointSet(2, frozenset(points)), canvas


def parse_pbm(text: str, *, center_origin: bool = False) -> PointSet:
    return parse_pbm_with_canvas(text, center_origin=center_origin)[0]


def read_pbm(path, *, center_origin: bool = False) -> PointSet:
    with open(path, encoding="ascii") as fh:
        return parse_pbm(fh.read(), center_origin=center_origin)


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
    if width * height > MAX_PIXELS:
        raise TooLarge(f"{width}x{height} raster exceeds the cap of {MAX_PIXELS} pixels")
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


def raster_canvas(width: int, height: int) -> tuple[int, int, int, int]:
    """Canvas covering a width x height raster anchored at the world origin."""
    return (0, 0, width - 1, height - 1)

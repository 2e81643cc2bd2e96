import random

import pytest

from latspace import pbm
from latspace.errors import FormatError
from latspace.morphology import PointSet


def test_parse_simple_image():
    text = "P1\n3 2\n1 0 0\n0 0 1\n"
    pts = pbm.parse_pbm(text)
    assert pts == PointSet(2, frozenset({(0, 0), (2, -1)}))


def test_parse_center_origin_vertical_pair():
    # 1x2 column with centered origin lands on the pair used by the
    # "sees a pixel only with another below it" brush
    text = "P1\n1 2\n1\n1\n"
    pts = pbm.parse_pbm(text, center_origin=True)
    assert pts == PointSet(2, frozenset({(0, 0), (0, -1)}))


def test_origin_comment_overrides_default():
    text = "P1\n# origin 1 1\n3 3\n0 1 0\n1 1 1\n0 1 0\n"
    pts = pbm.parse_pbm(text)
    assert pts == PointSet(
        2, frozenset({(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)})
    )


def test_comments_and_packed_digits_are_tolerated():
    text = "P1\n# a remark\n2 2\n10\n01\n"
    pts = pbm.parse_pbm(text)
    assert pts == PointSet(2, frozenset({(0, 0), (1, -1)}))


@pytest.mark.parametrize(
    "bad",
    [
        "P4\n1 1\n0\n",
        "P1\n1\n0\n",
        "P1\n2 1\n0\n",
        "P1\n1 1\n2\n",
        "P1\n0 1\n\n",
        "P1\n# origin x y\n1 1\n0\n",
    ],
)
def test_malformed_files_rejected(bad):
    with pytest.raises(FormatError):
        pbm.parse_pbm(bad)


def test_round_trip_preserves_points_and_canvas(tmp_path):
    pts = PointSet(2, frozenset({(0, 0), (3, -2), (-1, 1)}))
    path = tmp_path / "img.pbm"
    pbm.write_pbm(path, pts)
    back, canvas = pbm.read_pbm_with_canvas(path)
    assert back == pts
    pbm.write_pbm(path, back, canvas=canvas)
    assert pbm.read_pbm(path) == pts


def test_write_respects_canvas(tmp_path):
    pts = PointSet(2, frozenset({(1, -1)}))
    path = tmp_path / "img.pbm"
    pbm.write_pbm(path, pts, canvas=pbm.raster_canvas(3, 3))
    text = path.read_text()
    assert "3 3" in text
    assert pbm.read_pbm(path) == pts


def test_empty_image_writes_all_white(tmp_path):
    path = tmp_path / "white.pbm"
    pbm.write_pbm(path, PointSet(2, frozenset()), canvas=pbm.raster_canvas(4, 2))
    text = path.read_text()
    assert "1" not in text.splitlines()[-1]
    assert pbm.read_pbm(path) == PointSet(2, frozenset())


def test_long_rows_are_wrapped(tmp_path):
    pts = PointSet(2, frozenset({(i, 0) for i in range(0, 60, 2)}))
    path = tmp_path / "wide.pbm"
    pbm.write_pbm(path, pts)
    assert all(len(line) <= 70 for line in path.read_text().splitlines())
    assert pbm.read_pbm(path) == pts


def reference_format_pbm(points, *, canvas=None):
    """The per-row formatter that format_pbm replaced, kept as its reference."""
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
    grid = [["0"] * width for _ in range(height)]
    for x, y in points.points:
        grid[-y - min_row][x - min_col] = "1"
    lines = ["P1", f"# origin {-min_col} {-min_row}", f"{width} {height}"]
    for row in grid:
        lines.extend(" ".join(row[i : i + 34]) for i in range(0, width, 34))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("width", [1, 33, 34, 35, 68, 69])
def test_format_matches_reference_across_the_wrap(width):
    # 34 pixels go to a line, so these widths end a row just before, on and
    # just after one or two line breaks
    rng = random.Random(width)
    for _ in range(20):
        height = rng.randint(1, 4)
        oc, orow = rng.randint(-3, 3), rng.randint(-3, 3)
        density = rng.choice([0.0, 0.3, 1.0])
        pts = PointSet(2, frozenset(
            (col - oc, orow - row) for row in range(height) for col in range(width)
            if rng.random() < density))
        canvas = (-oc, -orow, width - 1 - oc, height - 1 - orow)
        for args in ({"canvas": canvas}, {}):
            assert pbm.format_pbm(pts, **args) == reference_format_pbm(pts, **args)

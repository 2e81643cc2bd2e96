import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_pbm_reference
from latspace import pbm
from latspace.errors import FormatError
from latspace.morphology import PointSet


def test_parse_simple_image():
    text = "P1\n3 2\n1 0 0\n0 0 1\n"
    pts = pbm.parse_pbm_with_canvas(text)[0]
    assert pts == PointSet(2, frozenset({(0, 0), (2, -1)}))


def test_parse_center_origin_vertical_pair():
    # 1x2 column with centered origin lands on the pair used by the
    # "sees a pixel only with another below it" brush
    text = "P1\n1 2\n1\n1\n"
    pts = pbm.parse_pbm_with_canvas(text, center_origin=True)[0]
    assert pts == PointSet(2, frozenset({(0, 0), (0, -1)}))


def test_origin_comment_overrides_default():
    text = "P1\n# origin 1 1\n3 3\n0 1 0\n1 1 1\n0 1 0\n"
    pts = pbm.parse_pbm_with_canvas(text)[0]
    assert pts == PointSet(
        2, frozenset({(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)})
    )


def test_comments_and_packed_digits_are_tolerated():
    text = "P1\n# a remark\n2 2\n10\n01\n"
    pts = pbm.parse_pbm_with_canvas(text)[0]
    assert pts == PointSet(2, frozenset({(0, 0), (1, -1)}))


@pytest.mark.parametrize("comment", ["# originally drawn by hand", "# origins: scanned"])
def test_comments_that_only_start_with_origin_are_remarks(comment):
    pts = pbm.parse_pbm_with_canvas(f"P1\n{comment}\n2 2\n10\n01\n")[0]
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
        pbm.parse_pbm_with_canvas(bad)


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
    pbm.write_pbm(path, pts, canvas=(0, 0, 2, 2))
    text = path.read_text()
    assert "3 3" in text
    assert pbm.read_pbm(path) == pts


def test_empty_image_writes_all_white(tmp_path):
    path = tmp_path / "white.pbm"
    pbm.write_pbm(path, PointSet(2, frozenset()), canvas=(0, 0, 3, 1))
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


# Comments that set, break or only resemble an origin, and every line end that
# str.splitlines knows, so a comment ending early or late shows.
# A malformed origin refuses the whole file, so it is drawn a fifth as often.
COMMENTS = 4 * ["# a remark", "#origin 1 2", "# origin -1 0 ", "#\torigin 0 3", "# originally",
                "# P1 9 9", "# é"] + ["# origin 2", "# origin x y", "## origin 1 1"]
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


@st.composite
def pbm_texts(draw):
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    bits = draw(st.lists(st.sampled_from("01"), min_size=width * height, max_size=width * height))
    tail = draw(st.sampled_from([[], [], [], ["1"], ["2"], ["é"], ["x"], None]))
    bits = bits[:-1] if tail is None else bits + tail
    magic = draw(st.sampled_from(["P1", "P1", "P1", "P4"]))
    text = ""
    for k, token in enumerate([magic, str(width), str(height), *bits]):
        text += token
        gap = draw(st.sampled_from(["", "", " ", "\t", "line", "line", "comment"]))
        if gap == "comment":
            text += " " + draw(st.sampled_from(COMMENTS)) + draw(st.sampled_from(LINE_ENDS))
        elif gap == "line":
            text += draw(st.sampled_from(LINE_ENDS))
        elif gap or k < 3:
            text += gap or " "  # glue bits only, so the header stays readable
    return text + draw(st.sampled_from(["", *LINE_ENDS, *(" " + c for c in COMMENTS)]))


def _outcome(parse, text, center_origin):
    try:
        return parse(text, center_origin=center_origin)
    except FormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=pbm_texts(), center_origin=st.booleans())
def test_parse_matches_the_line_by_line_reference(text, center_origin):
    assert (_outcome(pbm.parse_pbm_with_canvas, text, center_origin)
            == _outcome(parse_pbm_reference, text, center_origin))

"""Fuzzing of every loader and subcommand through in-process `cli.main`.

Inputs are the fixtures with a few entries replaced or dropped, lattice
documents of valid shape over odd labels, arbitrary JSON, raw bytes,
random PBM text, formulas, group and element arguments, and values of
LATSPACE_MAX_ENUM.  Whatever the input, the exit code is 0, 1 (a refusal)
or 2 (an argparse usage error), and a refusal is exactly one
`ERROR <code>: <detail>` line on stderr.
"""

import contextlib
import copy
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspace import cli, distributed

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
ERROR_LINE = re.compile(r"ERROR [A-Za-z]+: [^\n]*\n")


def _fixture(name):
    return json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8"))


LATTICE = _fixture("m2.json")
SYSTEMS = [_fixture("m2_scs.json"), _fixture("n5_scs.json"),
           {"lattice": "m2.json", "agents": _fixture("m2_scs.json")["agents"]}]
KRIPKE = _fixture("kripke_pair.json")
AUMANN = _fixture("aumann_grid.json")
LABELS = sorted({*LATTICE["elements"], *SYSTEMS[1]["lattice"]["elements"], *KRIPKE["states"],
                 *AUMANN["states"], "p", "1", "2"})
# Strings a console or a file name cannot take: the empty string, NUL, a
# lone surrogate (JSON "\\ud800"), path parts and arrow entries.
EDGE = ["", "\0", "\ud800", "..", "/", "→", "p->1"]
TEXT = st.sampled_from(EDGE) | st.sampled_from(LABELS) | st.text(max_size=3)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
GROUP = st.lists(TEXT, max_size=3).map(",".join)
# Lattice documents of well-formed shape over any labels; most are refused as orders.
SHAPED_LATTICE = st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
    lambda labels: st.fixed_dictionaries({"elements": st.just(labels), "covers": st.lists(
        st.lists(st.sampled_from(labels), min_size=2, max_size=2), max_size=4)}))
MAX_ENUM = st.sampled_from(["", "0", "1", "-4", "abc", "1e3", " 7"]) | st.integers(0, 5000).map(str)


@st.composite
def mutated(draw, doc):
    """The document with one to three entries, at any depth, dropped or
    replaced by a label or arbitrary JSON."""

    def visit(node):
        if isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if draw(st.integers(0, 3)):
                node[key] = visit(node[key])
            else:
                del node[key]
            return node
        return draw(JSON)

    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        doc = visit(doc)
    return doc


def document(fixtures, shaped=st.nothing()):
    """Text of a mutated fixture, of a `shaped` document or of arbitrary
    JSON, raw bytes, or a number past Python's 4300-digit limit."""
    return st.one_of(
        st.sampled_from(fixtures).flatmap(mutated).map(json.dumps),
        (shaped | JSON).map(json.dumps),
        st.binary(max_size=40),
        st.just("9" * 5000),
    )


PBM = st.one_of(
    st.text(alphabet="P1 0\n#origin-23", max_size=40),
    st.builds(
        lambda w, h, bits, origin: f"P1\n{origin}{w} {h}\n{' '.join(bits)}\n",
        st.integers(-1, 4), st.integers(-1, 4), st.lists(st.sampled_from("01"), max_size=20),
        st.sampled_from(["", "# origin 1 1\n", "# origin -3 9\n", "# origin x\n"]),
    ),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "m2.json").write_text(json.dumps(LATTICE))
    return path


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def check_cli(argv, max_enum=""):
    """Run one command in process, with stdout and stderr encoded as a
    UTF-8 console would, and check the exit contract."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"LATSPACE_MAX_ENUM": max_enum}):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out.flush()
        err.flush()
    stderr = err.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2), (argv, code, stderr)
    if code == 1:
        assert ERROR_LINE.fullmatch(stderr), (argv, stderr)


@settings(max_examples=100, deadline=None)
@given(text=document([LATTICE], SHAPED_LATTICE))
def test_lattice_check_never_crashes(workdir, text):
    check_cli(["lattice-check", _write(workdir / "lattice.json", text)])


@settings(max_examples=150, deadline=None)
@given(text=document(SYSTEMS, st.one_of(
    SHAPED_LATTICE.map(lambda lat: {"lattice": lat, "agents": {"1": lat["elements"]}}),
    TEXT.map(lambda path: {"lattice": path}),
)), data=st.data(), max_enum=MAX_ENUM)
def test_agent_system_commands_never_crash(workdir, text, data, max_enum):
    path = _write(workdir / "scs.json", text)
    group, at = data.draw(GROUP), data.draw(TEXT)
    argv = data.draw(st.sampled_from([
        ["scs-check", path],
        ["delta", "--scs", path, "--group", group],
        ["delta", "--scs", path, "--group", group, "--at", at],
        *[["delta", "--scs", path, "--group", group, "--method", method, "--emit", emit]
          for method in distributed.METHODS for emit in ("table", "json")],
        *[["project", "--scs", path, "--group", group, "--at", at, "--kind", kind]
          for kind in ("agent", "join", "group")],
    ]))
    check_cli(argv, max_enum)


@pytest.mark.parametrize("path", EDGE)
def test_every_edge_string_as_the_lattice_path(workdir, path):
    # the draws above put a given edge string in the path slot too rarely
    # to reach each one on every run
    check_cli(["scs-check", _write(workdir / "scs.json", json.dumps({"lattice": path}))])


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(document([KRIPKE]), min_size=1, max_size=2),
       formula=st.text(alphabet="pq~&|[]D{}12,TF() ", max_size=16))
def test_kripke_never_crashes(workdir, texts, formula):
    argv = ["kripke", "--formula", formula]
    for i, text in enumerate(texts):
        argv += ["--model", _write(workdir / f"kripke{i}.json", text)]
    check_cli(argv)


@settings(max_examples=100, deadline=None)
@given(text=document([AUMANN]), group=GROUP, event=GROUP)
def test_aumann_never_crashes(workdir, text, group, event):
    path = _write(workdir / "aumann.json", text)
    check_cli(["aumann", "--model", path, "--group", group, "--event", event])


@settings(max_examples=100, deadline=None)
@given(image=PBM, se=PBM, se2=PBM, op=st.sampled_from(["dilate", "erode", "ddilate"]))
def test_morph_never_crashes(workdir, image, se, se2, op):
    check_cli(["morph", "--op", op, "--image", _write(workdir / "image.pbm", image),
               "--se", _write(workdir / "se.pbm", se), "--se2", _write(workdir / "se2.pbm", se2),
               "--out", str(workdir / "out.pbm")])

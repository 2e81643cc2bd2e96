import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from latspace import cli, epistemic, selfcheck

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "latspace", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"},
    )


def test_lattice_check(fixture_dir):
    out = run_cli("lattice-check", str(fixture_dir / "m2.json"))
    assert out.returncode == 0
    assert "elements: 4" in out.stdout
    assert "bottom: p∨¬p" in out.stdout
    assert "top: p∧¬p" in out.stdout
    assert "distributive: yes" in out.stdout


def test_scs_check(fixture_dir):
    out = run_cli("scs-check", str(fixture_dir / "m2_scs.json"))
    assert out.returncode == 0
    assert "agent 1: ok" in out.stdout
    assert "agent 2: ok" in out.stdout


def test_every_repo_fixture_passes_its_check(fixture_dir):
    for path in sorted(fixture_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "agents" in doc:
            out = run_cli("scs-check", str(path))
        elif "partitions" in doc or "states" in doc:
            continue  # epistemic model files are exercised below
        else:
            out = run_cli("lattice-check", str(path))
        assert out.returncode == 0, path


def test_delta_at_element(fixture_dir):
    out = run_cli(
        "delta", "--scs", str(fixture_dir / "m2_scs.json"),
        "--group", "1,2", "--method", "tuple", "--at", "p∧¬p",
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "¬p"


@pytest.mark.parametrize("method", ["tuple", "subtract", "oracle"])
def test_delta_table_all_methods(fixture_dir, method):
    out = run_cli(
        "delta", "--scs", str(fixture_dir / "m2_scs.json"),
        "--group", "1,2", "--method", method,
    )
    assert out.returncode == 0
    lines = [ln.split("->") for ln in out.stdout.strip().splitlines()]
    table = {src.strip(): dst.strip() for src, dst in lines}
    assert table == {"p∨¬p": "p∨¬p", "p": "¬p", "¬p": "p∨¬p", "p∧¬p": "¬p"}


def test_delta_json_emit(fixture_dir):
    out = run_cli(
        "delta", "--scs", str(fixture_dir / "m2_scs.json"),
        "--group", "1,2", "--emit", "json",
    )
    doc = json.loads(out.stdout)
    assert doc["group"] == ["1", "2"]
    assert doc["delta"]["p∧¬p"] == "¬p"


def test_project_kinds(fixture_dir):
    scs = str(fixture_dir / "m2_scs.json")
    group_out = run_cli("project", "--scs", scs, "--group", "1,2", "--at", "p∨¬p", "--kind", "group")
    join_out = run_cli("project", "--scs", scs, "--group", "1,2", "--at", "p∨¬p", "--kind", "join")
    agent_out = run_cli("project", "--scs", scs, "--group", "1", "--at", "p", "--kind", "agent")
    assert group_out.stdout.strip() == "¬p"
    assert join_out.stdout.strip() == "p∨¬p"
    assert agent_out.stdout.strip() == "¬p"


def test_kripke_formula(fixture_dir):
    out = run_cli(
        "kripke", "--model", str(fixture_dir / "kripke_pair.json"),
        "--formula", "D{1,2} ~p",
    )
    assert out.returncode == 0
    assert "satisfying pointed states (2)" in out.stdout


def test_kripke_model_set(fixture_dir, tmp_path):
    second = tmp_path / "single.json"
    second.write_text(
        json.dumps(
            {
                "states": ["u"],
                "props": ["p"],
                "val": {"u": {"p": 1}},
                "rel": {"1": [["u", "u"]]},
            }
        )
    )
    out = run_cli(
        "kripke",
        "--model", str(fixture_dir / "kripke_pair.json"),
        "--model", str(second),
        "--formula", "[]1 p",
    )
    assert out.returncode == 0
    assert "m1:u" in out.stdout


def test_aumann_event(fixture_dir):
    out = run_cli(
        "aumann", "--model", str(fixture_dir / "aumann_grid.json"),
        "--group", "1,2", "--event", "2,3",
    )
    assert out.returncode == 0
    assert "{2,3}" in out.stdout.splitlines()[-1]


def test_aumann_over_ten_states_is_too_large(tmp_path):
    states = [f"s{i}" for i in range(11)]
    path = tmp_path / "eleven.json"
    path.write_text(json.dumps({"states": states, "partitions": {"1": [states]}}))
    out = run_cli("aumann", "--model", str(path), "--group", "1", "--event", "s0")
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR TooLarge:")


def test_aumann_output_equals_the_reference_operator(tmp_path, capsys):
    rng = random.Random(8)
    for k in range(20):
        struct = selfcheck.random_aumann(rng)
        agents = sorted(struct.partitions)
        group = rng.sample(agents, rng.randint(1, len(agents)))
        event = frozenset(s for s in struct.states if rng.random() < 0.6) or {struct.states[0]}
        path = tmp_path / f"structure{k}.json"
        path.write_text(json.dumps({
            "states": list(struct.states),
            "partitions": {a: [sorted(b) for b in blocks] for a, blocks in struct.partitions.items()},
        }))
        code = cli.main(["aumann", "--model", str(path), "--group", ",".join(group),
                         "--event", ",".join(sorted(event))])
        known = epistemic.aumann_dk(struct, group, event)
        assert (code, capsys.readouterr().out) == (0, (
            f"distributed knowledge of {{{','.join(sorted(event))}}} "
            f"in group {{{','.join(sorted(group))}}}:\n"
            "  {" + ",".join(sorted(known)) + "}\n"
        ))


def test_set_like_state_names_print_as_given(tmp_path, capsys):
    # as sets, {a,b} and {"a,b"} share a label, and so do {} and {""}
    path = tmp_path / "kripke.json"
    path.write_text(json.dumps({"states": ["a", "b", "a,b"], "props": ["p"],
                                "val": {"a,b": {"p": 1}}, "rel": {"1": [["a", "a,b"]]}}))
    code = cli.main(["kripke", "--model", str(path), "--formula", "[]1 p"])
    assert (code, capsys.readouterr().out) == (
        0, "satisfying pointed states (3):\n  a\n  a,b\n  b\n")
    path = tmp_path / "aumann.json"
    path.write_text(json.dumps({"states": ["", "{x}", "{}"],
                                "partitions": {"1": [["", "{x}"], ["{}"]], "2": [[""], ["{x}", "{}"]]}}))
    code = cli.main(["aumann", "--model", str(path), "--group", "1,2", "--event", "{x}"])
    assert (code, capsys.readouterr().out) == (
        0, "distributed knowledge of {{x}} in group {1,2}:\n  {{x}}\n")


def test_project_agent_kind_reads_a_repeated_agent_once(fixture_dir, capsys):
    for at in ("p∨¬p", "p", "¬p", "p∧¬p"):
        argv = ["project", "--scs", str(fixture_dir / "m2_scs.json"), "--at", at, "--kind", "agent"]
        outputs = []
        for group in ("1", "1,1", " 1 ,1"):
            outputs.append((cli.main([*argv, "--group", group]), capsys.readouterr()))
        assert outputs[0][0] == 0
        assert outputs[1:] == outputs[:1] * 2


def test_morph_ddilate_disjoint_is_all_white(fixture_dir, tmp_path):
    # two brushes with empty intersection wipe the image
    se1 = tmp_path / "a.pbm"
    se2 = tmp_path / "b.pbm"
    se1.write_text("P1\n# origin 0 0\n2 1\n0 1\n")
    se2.write_text("P1\n# origin 0 0\n3 1\n0 0 1\n")
    out_path = tmp_path / "out.pbm"
    out = run_cli(
        "morph", "--op", "ddilate",
        "--image", str(fixture_dir / "image_t.pbm"),
        "--se", str(se1), "--se2", str(se2),
        "--out", str(out_path),
    )
    assert out.returncode == 0
    body = out_path.read_text().splitlines()
    assert body[0] == "P1"
    assert not any("1" in line for line in body[3:])


def test_morph_dilate_erode_round(fixture_dir, tmp_path):
    dilated = tmp_path / "dilated.pbm"
    eroded = tmp_path / "back.pbm"
    out = run_cli(
        "morph", "--op", "dilate",
        "--image", str(fixture_dir / "image_t.pbm"),
        "--se", str(fixture_dir / "se_vertical.pbm"),
        "--out", str(dilated),
    )
    assert out.returncode == 0
    out = run_cli(
        "morph", "--op", "erode", "--image", str(dilated),
        "--se", str(fixture_dir / "se_vertical.pbm"), "--out", str(eroded),
    )
    assert out.returncode == 0
    from latspace import pbm

    original = pbm.read_pbm(fixture_dir / "image_t.pbm")
    back = pbm.read_pbm(eroded)
    assert original.points <= back.points  # adjunction unit


def test_morph_ddilate_requires_second_brush(fixture_dir, tmp_path):
    out = run_cli(
        "morph", "--op", "ddilate",
        "--image", str(fixture_dir / "image_t.pbm"),
        "--se", str(fixture_dir / "se_a.pbm"),
        "--out", str(tmp_path / "x.pbm"),
    )
    assert out.returncode == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


def test_morph_refuses_a_raster_over_the_pixel_cap(tmp_path, capsys):
    # the brush origin sits 10^9 columns left of its one pixel, so the
    # dilated points, and the canvas that must reach them, are 10^9 wide
    brush = tmp_path / "far.pbm"
    brush.write_text("P1\n# origin -1000000000 0\n1 1\n1\n")
    image = tmp_path / "image.pbm"
    image.write_text("P1\n2 2\n1 0\n0 1\n")
    out_path = tmp_path / "out.pbm"
    t0 = time.monotonic()
    code = cli.main(["morph", "--op", "dilate", "--image", str(image), "--se", str(brush),
                     "--out", str(out_path)])
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("ERROR TooLarge:")
    assert not out_path.exists()


def test_morph_refuses_an_image_over_the_pixel_cap_from_its_header(tmp_path, capsys):
    # the output canvas contains the image's, so a 1025x1024 image is refused
    # before its bits are read, not after a dilation of some 300,000 points
    rng = random.Random(22)
    image = tmp_path / "image.pbm"
    rows = ("".join("1" if rng.random() < 0.3 else "0" for _ in range(1025)) for _ in range(1024))
    image.write_text("P1\n1025 1024\n" + "\n".join(rows) + "\n")
    brush = tmp_path / "cross.pbm"
    brush.write_text("P1\n3 3\n0 1 0\n1 1 1\n0 1 0\n")
    out_path = tmp_path / "out.pbm"
    t0 = time.monotonic()
    code = cli.main(["morph", "--op", "dilate", "--image", str(image), "--se", str(brush),
                     "--out", str(out_path)])
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("ERROR TooLarge:")
    assert not out_path.exists()


def test_deterministic_output(fixture_dir):
    args = ("delta", "--scs", str(fixture_dir / "m2_scs.json"), "--group", "2,1", "--emit", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout


def test_selfcheck_deterministic_and_green(selfcheck_lines):
    out = run_cli("selfcheck", "--seed", "7")
    assert out.returncode == 0
    assert out.stdout == "".join(line + "\n" for line in selfcheck_lines)
    assert "FAIL" not in out.stdout
    assert out.stdout.strip().splitlines()[0] == "selfcheck seed=7"


@pytest.mark.parametrize("name", [name for name, *_ in selfcheck.CHECKS])
def test_selfcheck_property(selfcheck_lines, name):
    line = next(ln for ln in selfcheck_lines if ln.split(":")[0].split(" ", 1)[-1] == name)
    assert line.startswith(f"PASS {name}: "), line


def test_error_format_single_line(fixture_dir):
    out = run_cli("delta", "--scs", str(fixture_dir / "m2_scs.json"), "--group", "7")
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR UnknownAgent:")
    missing = run_cli("lattice-check", "no_such_file.json")
    assert missing.returncode == 1
    assert missing.stderr.startswith("ERROR FileNotFound:")


def test_usage_error_exits_2():
    out = run_cli("delta", "--scs")
    assert out.returncode == 2
    out = run_cli("no-such-command")
    assert out.returncode == 2


def test_enum_cap_env_var(fixture_dir):
    out = subprocess.run(
        [sys.executable, "-m", "latspace", "delta",
         "--scs", str(fixture_dir / "m2_scs.json"), "--group", "1,2",
         "--method", "oracle"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
             "PYTHONIOENCODING": "utf-8", "LATSPACE_MAX_ENUM": "1"},
    )
    assert out.returncode == 1
    assert out.stderr.startswith("ERROR TooLarge:")


def test_scs_check_on_json_array(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    out = run_cli("scs-check", str(path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


def test_lattice_check_on_directory(tmp_path):
    out = run_cli("lattice-check", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR FileError:")


def test_enum_cap_env_var_must_be_an_integer(fixture_dir):
    out = subprocess.run(
        [sys.executable, "-m", "latspace", "delta",
         "--scs", str(fixture_dir / "m2_scs.json"), "--group", "1,2",
         "--method", "oracle"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
             "PYTHONIOENCODING": "utf-8", "LATSPACE_MAX_ENUM": "abc"},
    )
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR FormatError:")


def test_lattice_check_on_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"elements": ["\xff"], "covers": []}')
    out = run_cli("lattice-check", str(path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR FormatError:")


def test_lattice_check_on_string_elements(tmp_path):
    path = tmp_path / "string.json"
    path.write_text('{"elements": "ab", "covers": []}')
    out = run_cli("lattice-check", str(path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


@pytest.mark.parametrize("covers", ['[["a"]]', '[["a", "b", "c"]]', '"ab"'])
def test_lattice_check_on_malformed_covers(tmp_path, covers):
    path = tmp_path / "covers.json"
    path.write_text(f'{{"elements": ["a", "b"], "covers": {covers}}}')
    out = run_cli("lattice-check", str(path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


def test_lattice_check_over_the_element_cap_fails_fast(tmp_path):
    labels = [str(i) for i in range(5000)]
    doc = {"elements": labels, "covers": [[a, b] for a, b in zip(labels, labels[1:])]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    t0 = time.monotonic()
    out = run_cli("lattice-check", str(path))
    assert time.monotonic() - t0 < 5.0
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR TooLarge:")


@pytest.mark.parametrize("doc", [
    '{"states": ["s", "u"], "props": ["p"], "rel": {"1": ["su", "us"]}}',
    '{"states": ["s"], "val": []}',
    '{"states": ["s"], "rel": []}',
    '{"states": ["s"], "props": ["p"], "val": {"s": [1]}}',
    '{"states": ["s"], "props": ["p"], "val": {"u": {"p": 1}}, "rel": {"1": [["s", "s"]]}}',
    '{"states": ["s"], "props": ["p"], "val": {"s": {"q": 1}}, "rel": {"1": [["s", "s"]]}}',
    '{"states": ["s"], "props": ["p"], "val": {"s": {"p": 7}}, "rel": {"1": [["s", "s"]]}}',
    '{"states": ["s"], "props": ["p", "p"], "rel": {"1": [["s", "s"]]}}',
    *[f'{{"states": ["s"], "props": ["p"], "val": {{"s": {{"p": {v}}}}}, "rel": {{"1": [["s", "s"]]}}}}'
      for v in ("0.7", "1.5", '"1"', "true")],
], ids=["pairs", "val-array", "rel-array", "row-array", "val-state", "val-prop", "val-value",
        "props-repeated", "val-fraction", "val-above-one", "val-string", "val-bool"])
def test_kripke_relation_pairs_given_as_strings(doc, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(doc)
    out = run_cli("kripke", "--model", str(path), "--formula", "[]1 p")
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


@pytest.mark.parametrize("doc", [
    '{"states": ["a", "b", "c"], "partitions": {"1": ["ab", "c"]}}',
    '{"states": ["s"], "partitions": []}',
], ids=["blocks", "partitions-array"])
def test_aumann_blocks_given_as_strings(doc, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(doc)
    out = run_cli("aumann", "--model", str(path), "--group", "1", "--event", "a,b")
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR InvalidElement:")


# Every label is a JSON string: a null, list, float or boolean label is
# refused, even where its str() would name a declared label.
LABEL_CASES = {"null": None, "list": ["t"], "float": 0.5, "bool": True}


def _label_document(loader, value):
    name = str(value)  # what a coercing loader would read the label as
    return {
        "scs-check": {"lattice": {"elements": [name, "b"], "covers": [[name, "b"]]},
                      "agents": {"1": [value, "b"]}},
        "kripke": {"states": [value], "rel": {"1": [[value, value]]}},
        "aumann": {"states": [value], "partitions": {"1": [[value]]}},
    }[loader]


@pytest.mark.parametrize("label", sorted(LABEL_CASES))
@pytest.mark.parametrize("loader", ["scs-check", "kripke", "aumann"])
def test_non_string_labels_are_refused(loader, label, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_label_document(loader, LABEL_CASES[label])))
    argv = {"scs-check": ["scs-check", str(path)],
            "kripke": ["kripke", "--model", str(path), "--formula", "T"],
            "aumann": ["aumann", "--model", str(path), "--group", "1", "--event", ""]}[loader]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("ERROR InvalidElement:")


@pytest.mark.parametrize("argv,text", [
    (["lattice-check", "{path}"], '{"elements": ["\\ud800"], "covers": []}'),  # unprintable label
    (["scs-check", "{path}"], '{"lattice": "m2\\u0000.json"}'),  # NUL in the lattice path
    (["kripke", "--model", "{path}", "--formula", "p"], "9" * 5000),  # past the 4300-digit limit
], ids=["lone-surrogate-label", "nul-in-path", "long-integer"])
def test_inputs_python_cannot_take_are_one_error_line(argv, text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main([a.replace("{path}", str(path)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ERROR FormatError:")


def test_unencodable_output_leaves_stdout_empty(tmp_path):
    # "elements: 1" encodes; the bottom label on the next line does not.
    path = tmp_path / "lattice.json"
    path.write_text('{"elements": ["\\ud800"], "covers": []}')
    out = run_cli("lattice-check", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("ERROR FormatError:")


@pytest.mark.parametrize("argv", [
    ["lattice-check", "{deep}"],
    ["kripke", "--model", "{fixtures}/kripke_pair.json", "--formula", "~" * 2000 + "p"],
    ["kripke", "--model", "{fixtures}/kripke_pair.json", "--formula", "p" + " & p" * 5000],
])
def test_deep_nesting_is_one_error_line(argv, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    out = run_cli(*(a.replace("{deep}", str(deep)).replace("{fixtures}", str(FIXTURE_DIR))
                    for a in argv))
    assert (out.returncode, out.stderr) == (1, "ERROR FormatError: input nests too deeply\n")


# Output of the m2_scs fixture, frozen byte for byte.
M2_DELTA_TABLE = "p∨¬p -> p∨¬p\np    -> ¬p\n¬p   -> p∨¬p\np∧¬p -> ¬p\n"
M2_DELTA_JSON = """{
 "group": [
  "1",
  "2"
 ],
 "method": "tuple",
 "delta": {
  "p∨¬p": "p∨¬p",
  "p": "¬p",
  "¬p": "p∨¬p",
  "p∧¬p": "¬p"
 }
}
"""
M2_GROUP_PROJECTIONS = {"p∨¬p": "¬p", "p": "¬p", "¬p": "p∧¬p", "p∧¬p": "p∧¬p"}


@pytest.mark.parametrize("method", ["tuple", "subtract", "oracle"])
def test_delta_golden_output(fixture_dir, method):
    scs = str(fixture_dir / "m2_scs.json")
    table = run_cli("delta", "--scs", scs, "--group", "1,2", "--method", method)
    assert (table.returncode, table.stdout, table.stderr) == (0, M2_DELTA_TABLE, "")
    doc = run_cli("delta", "--scs", scs, "--group", "1,2", "--method", method, "--emit", "json")
    expected = M2_DELTA_JSON.replace('"tuple"', f'"{method}"')
    assert (doc.returncode, doc.stdout, doc.stderr) == (0, expected, "")


@pytest.mark.parametrize("at", sorted(M2_GROUP_PROJECTIONS))
def test_project_group_golden_output(fixture_dir, at):
    scs = str(fixture_dir / "m2_scs.json")
    out = run_cli("project", "--scs", scs, "--group", "1,2", "--kind", "group", "--at", at)
    assert (out.returncode, out.stdout, out.stderr) == (0, M2_GROUP_PROJECTIONS[at] + "\n", "")


# Golden output of in-process `cli.main` over the fixtures, one entry per
# command.  `{fixtures}` and `{out}` stand for the fixture directory and the
# `--out` file of `morph`, whose PBM text is recorded as well.  Regenerate
# with `PYTHONPATH=src python tests/test_cli.py` only when an output change
# is intended.
GOLDEN_PATH = Path(__file__).resolve().parent / "cli_golden.json"
GOLDEN_COMMANDS = [
    ["lattice-check", "{fixtures}/m2.json"],
    ["scs-check", "{fixtures}/m2_scs.json"],
    *[["delta", "--scs", "{fixtures}/m2_scs.json", "--group", "1,2", "--method", method,
       "--emit", emit] for method in ("tuple", "subtract", "oracle") for emit in ("table", "json")],
    ["delta", "--scs", "{fixtures}/m2_scs.json", "--group", "2", "--method", "subtract"],
    ["delta", "--scs", "{fixtures}/m2_scs.json", "--group", "1,2", "--at", "p∧¬p"],
    ["delta", "--scs", "{fixtures}/m2_scs.json", "--group", "1,3"],
    ["project", "--scs", "{fixtures}/m2_scs.json", "--group", "1", "--at", "p", "--kind", "agent"],
    ["project", "--scs", "{fixtures}/m2_scs.json", "--group", "1,2", "--at", "p∨¬p", "--kind", "join"],
    ["project", "--scs", "{fixtures}/m2_scs.json", "--group", "1,2", "--at", "¬p", "--kind", "group"],
    *[["kripke", "--model", "{fixtures}/kripke_pair.json", "--formula", formula]
      for formula in ("D{1,2} ~p", "[]1 p", "[]2 p | ~[]1 F", "~(p & T) | D{2} F", "q", "[]3 p", "p &")],
    ["kripke", "--model", "{fixtures}/kripke_pair.json", "--model", "{fixtures}/kripke_pair.json",
     "--formula", "D{1} ~p & ~[]2 p"],
    *[["aumann", "--model", "{fixtures}/aumann_grid.json", "--group", group, "--event", event]
      for group, event in (("1,2", "2,3"), ("1", "1,2,3"), ("2,1", "4"), ("2", "1,3"), ("3", "1"), ("1", "9"))],
    *[["morph", "--op", op, "--image", "{fixtures}/image_t.pbm", "--se", "{fixtures}/" + se,
       "--out", "{out}"] for op, se in (("dilate", "se_vertical.pbm"), ("erode", "se_vertical.pbm"))],
    ["morph", "--op", "ddilate", "--image", "{fixtures}/image_t.pbm", "--se", "{fixtures}/se_a.pbm",
     "--se2", "{fixtures}/se_b.pbm", "--out", "{out}"],
    # 96 elements: each down-set bitset spans two 64-bit words.
    *[["delta", "--scs", "{fixtures}/downset96_scs.json", "--group", "1,2,3", "--method", method,
       "--emit", emit] for method in ("tuple", "subtract") for emit in ("table", "json")],
    ["project", "--scs", "{fixtures}/downset96_scs.json", "--group", "1,2,3", "--at", "{e0,e3}",
     "--kind", "group"],
    # Down-sets of a 9-point poset: 9 join-irreducibles, so each element's
    # key on them spans two bytes.
    ["delta", "--scs", "{fixtures}/downset63_scs.json", "--group", "1,2,3", "--method", "subtract",
     "--emit", "json"],
    # N5 is not distributive: the oracle filters its candidates, and the
    # join-prime fold refuses.
    ["delta", "--scs", "{fixtures}/n5_scs.json", "--group", "1,2", "--method", "oracle",
     "--emit", "json"],
    ["delta", "--scs", "{fixtures}/n5_scs.json", "--group", "1,2", "--method", "tuple"],
    ["lattice-check", "{fixtures}/n5.json"],
    ["project", "--scs", "{fixtures}/m2_scs.json", "--group", "1,2", "--at", "p", "--kind", "agent"],
    ["morph", "--op", "ddilate", "--image", "{fixtures}/image_t.pbm", "--se", "{fixtures}/se_a.pbm",
     "--out", "{out}"],
]


def _run_golden(argv, out_path: Path) -> dict:
    """Exit code, stdout, stderr and (for a `morph` that succeeds) the written PBM of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.replace("{fixtures}", str(FIXTURE_DIR)).replace("{out}", str(out_path))
                         for a in argv])
    result = {"argv": argv, "code": code,
              "stdout": stdout.getvalue().replace(str(out_path), "{out}"),
              "stderr": stderr.getvalue()}
    if argv[0] == "morph" and code == 0:  # a refused command writes no file
        result["pbm"] = out_path.read_text(encoding="utf-8")
    return result


@pytest.mark.parametrize("index", range(len(GOLDEN_COMMANDS)))
def test_cli_output_matches_golden_file(index, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden) == len(GOLDEN_COMMANDS)
    assert _run_golden(GOLDEN_COMMANDS[index], tmp_path / "out.pbm") == golden[index]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [_run_golden(argv, Path(tmp) / "out.pbm") for argv in GOLDEN_COMMANDS]
    GOLDEN_PATH.write_text(json.dumps(entries, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

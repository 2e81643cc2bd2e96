"""Tests of the benchmark itself: smoke runs, span arithmetic, failure
accounting and tracer hygiene.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from latspace import distributed, spaces  # noqa: E402

TINY = {
    "cli-oneshot": {},
    "pooled-cold": {"pattern": [("ps", 3, 2), ("ds", 24, 3), ("stack", "N5")]},
    "pooled-warm": {"pattern": [("mid", 2, 1), ("big", 3, 2)], "ground": 4, "mid_points": 5,
                    "mid_size": (8, 24)},
    "small-exhaustive": {"pattern": sorted({k for k in workloads.SMALL_PATTERN if ":" not in k})
                         + ["herbrand:96"]},
}


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    return str(tmp_path)


def tiny_ops(name, work, seed=3):
    ops = workloads.WORKLOADS[name](seed, work, **TINY[name])
    return ops[:4] if name == "cli-oneshot" else ops


def failures_of(ops):
    """Run each operation once through the benchmark loop."""
    return [f for op in ops for f in run.run_ops([op], 0.0).failures]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(name, work):
    assert failures_of(tiny_ops(name, work)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operations_record_spans_and_restore(name, work):
    ops = tiny_ops(name, work)
    before = distributed.delta_group, spaces.Scs.__dict__["from_json"]
    metrics, phase = run.per_layer(ops, 0.0, spans, name)
    assert phase.failures == []
    assert (distributed.delta_group, spaces.Scs.__dict__["from_json"]) == before
    assert set(metrics) >= set(spans.TIME_METRICS) | set(spans.COUNT_METRICS)
    assert metrics["trace.op_ms"] > 0


def test_the_loop_runs_whole_passes():
    ops = [lambda tracer: None] * 3
    phase = run.run_ops(ops, 0.01)
    assert len(phase.latencies) % 3 == 0 and phase.failures == []


def test_inputs_depend_only_on_the_seed(work, tmp_path):
    def files(seed, name):
        folder = tmp_path / name
        folder.mkdir()
        workloads.setup_cli_oneshot(seed, str(folder))
        return {p.name: p.read_text() for p in folder.iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a2") != files(6, "c")


def test_self_time_subtracts_what_children_cover():
    tracer = spans.Tracer(spans=[
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 5.0, 9.0, 0, 0),
        spans.Span("a", 2.0, 3.0, 1, 0),
        spans.Span("c", 3.0, 6.0, 0, 1),  # overlaps a and b: counted once
    ])
    assert spans.self_times(tracer.spans) == [2.0, 2.0, 4.0, 1.0, 3.0]
    tracer.counters = {"distributed.family_gets": 4, "distributed.family_hits": 1}
    metrics = spans.layer_metrics(tracer, ops=2)
    assert metrics["distributed.family_hit_ratio"] == 0.25
    assert metrics["spaces.enum_yield_ratio"] == 0.0


def test_child_spans_hang_under_the_open_span():
    tracer = spans.Tracer()
    root = tracer.begin("op")
    tracer.adopt([["cli.command", 1.0, 3.0, None], ["pbm.read", 1.5, 2.0, 0]])
    tracer.end(root)
    assert [s.parent for s in tracer.spans] == [None, 0, 1]


def _bottom_delta(scs, group, method="tuple", *, family=None):
    return spaces.bottom_function(scs.lattice)


@pytest.mark.parametrize("name", ["pooled-cold", "pooled-warm", "small-exhaustive"])
def test_wrong_pooled_space_counts_as_failed(name, work, monkeypatch):
    ops = tiny_ops(name, work)
    monkeypatch.setattr(distributed, "delta_group", _bottom_delta)
    monkeypatch.setattr(spaces, "function_meet_oracle", lambda lat, fs, **kw: spaces.bottom_function(lat))
    failures = failures_of(ops)
    assert failures
    assert all(": Wrong: " in f for f in failures)


def test_install_reaches_every_namespace_and_restore_undoes_it():
    import latspace
    from latspace import cli, lattice

    original = spaces.validate_space_function, lattice.FiniteLattice.__dict__["subtract_table"]
    patches = spans.install(spans.Tracer())
    try:
        for holder in (spaces, distributed, cli, latspace):
            assert holder.validate_space_function.__wrapped__ is original[0]
        assert lattice.FiniteLattice.__dict__["subtract_table"] is not original[1]
    finally:
        patches.restore()
    for holder in (spaces, distributed, cli, latspace):
        assert holder.validate_space_function is original[0]
    assert lattice.FiniteLattice.__dict__["subtract_table"] is original[1]


def test_command_prints_result_last(work):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small-exhaustive", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    *_, record, result = done.stdout.splitlines()
    assert json.loads(record)["record"]["seed"] == 2
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_command_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pooled-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_file_names_exactly_the_printed_metrics(work):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    metrics, _ = run.per_layer(tiny_ops("small-exhaustive", work), 0.0, spans, "small-exhaustive")
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: run.unit_of(k) for k in metrics}
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)

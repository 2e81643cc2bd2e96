"""The benchmark's four workloads: set-up and checked operations.

`WORKLOADS[name](seed, workdir)` generates the workload's inputs from the
seed and returns the list of operations, each a callable taking the tracer
of a traced run (or None) that raises on a wrong result.  The runner cycles
through the list in order.  Each list is built from a fixed pattern of
operation kinds, so every seed gives the same mix of costs and only the
contents change; that keeps the figures steady from seed to seed.

Why each workload exists:

- cli-oneshot: one `python -m latspace` process per operation; interpreter
  start, import, JSON/PBM load and output dominate.
- pooled-cold: an agent system on a lattice never seen before, parsed from
  JSON text; lattice construction, the distributivity scan, the subtraction
  table and the bound tables dominate.
- pooled-warm: fresh systems on two lattices built and warmed during set-up;
  the fold, projections, validation and cache reuse dominate.
- small-exhaustive: universes small enough for the enumeration oracle;
  enumeration, per-candidate validation, the epistemic and morphology layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np

import inputs
from latspace import cli, distributed, epistemic, lattice, morphology, spaces
from latspace.errors import NotDistributive

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "tracechild.py")


class Wrong(Exception):
    """An operation returned a result that failed its check."""


def expect(ok, what: str) -> None:
    if not ok:
        raise Wrong(what)


def _rng(seed: int, workload: str, item: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{item}")


# -- cli-oneshot ------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _cli_commands(rng: random.Random, work: str) -> list[list[str]]:
    """Write the seeded input files and return one argument list per command."""

    def write(name: str, text: str) -> str:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    mid = inputs.powerset(6)
    mid_doc = inputs.agent_system_doc(mid, {a: mid.random_agent(rng) for a in "123"})
    mid_scs = write("mid_scs.json", inputs.dump(mid_doc))
    mid_lattice = write("mid_lattice.json", inputs.dump(mid_doc["lattice"]))
    small = inputs.powerset(3)
    small_scs = write("small_scs.json", inputs.dump(
        inputs.agent_system_doc(small, {a: small.random_agent(rng) for a in "12"})))
    models = inputs.kripke_models(rng, ["1", "2"], 4)
    model_paths = [write(f"kripke{i}.json", inputs.dump(d)) for i, d in enumerate(models)]
    formula, _ = inputs.random_formula(rng, ["1", "2"], 3)
    aumann = inputs.aumann_doc(rng, ["1", "2", "3"], 4)
    aumann_path = write("aumann.json", inputs.dump(aumann))
    event = ",".join(s for s in aumann["states"] if rng.random() < 0.6) or aumann["states"][0]
    image = write("image.pbm", inputs.pbm_text(rng, 32, 32, 0.3))
    se1 = write("se1.pbm", inputs.pbm_text(rng, 3, 3, 0.5))
    se2 = write("se2.pbm", inputs.pbm_text(rng, 3, 3, 0.5))
    at = [mid.labels[rng.randrange(mid.n)] for _ in range(3)]
    models_args = [arg for path in model_paths for arg in ("--model", path)]
    out = os.path.join(work, "out.pbm")
    return [
        ["lattice-check", "fixtures/m2.json"],
        ["delta", "--scs", mid_scs, "--group", "1,2,3", "--method", "tuple"],
        ["morph", "--op", "dilate", "--image", image, "--se", se1, "--out", out],
        ["project", "--scs", mid_scs, "--group", "1,2", "--at", at[0], "--kind", "group"],
        ["kripke", *models_args, "--formula", formula],
        ["scs-check", mid_scs],
        ["delta", "--scs", small_scs, "--group", "1,2", "--method", "oracle"],
        ["morph", "--op", "erode", "--image", image, "--se", se1, "--out", out],
        ["aumann", "--model", aumann_path, "--group", "1,2", "--event", event],
        ["project", "--scs", mid_scs, "--group", "1,2,3", "--at", at[1], "--kind", "join"],
        ["lattice-check", mid_lattice],
        ["delta", "--scs", mid_scs, "--group", "1,3", "--method", "subtract", "--emit", "json"],
        ["morph", "--op", "ddilate", "--image", image, "--se", se1, "--se2", se2, "--out", out],
        ["kripke", "--model", "fixtures/kripke_pair.json", "--formula", "D{1,2} ~p"],
        ["project", "--scs", mid_scs, "--group", "2", "--at", at[2], "--kind", "agent"],
        ["scs-check", "fixtures/m2_scs.json"],
        ["delta", "--scs", "fixtures/m2_scs.json", "--group", "1,2", "--method", "oracle", "--at", "p∧¬p"],
        ["morph", "--op", "ddilate", "--image", "fixtures/image_t.pbm", "--se", "fixtures/se_a.pbm",
         "--se2", "fixtures/se_b.pbm", "--out", out],
        ["aumann", "--model", "fixtures/aumann_grid.json", "--group", "1,2", "--event", "2,3"],
        ["delta", "--scs", mid_scs, "--group", "1,2", "--method", "tuple", "--at", at[0]],
    ]


def _in_process(argv: list[str]) -> tuple[str, str | None]:
    """Expected stdout (and output image) of a command, computed in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed: {argv}")
    return buf.getvalue(), _read_out(argv)


def _read_out(argv: list[str]) -> str | None:
    if "--out" not in argv:
        return None
    path = argv[argv.index("--out") + 1]
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    os.remove(path)
    return text


def setup_cli_oneshot(seed: int, work: str):
    rng = _rng(seed, "cli-oneshot", 0)
    env = _child_env()
    ops = []
    for argv in _cli_commands(rng, work):
        stdout, image = _in_process(argv)
        ops.append(_cli_op(argv, stdout, image, env, work))
    return ops


def _cli_op(argv, stdout, image, env, work):
    spans_path = os.path.join(work, "spans.json")

    def op(tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "latspace", *argv]
        else:
            cmd = [sys.executable, TRACE_CHILD, spans_path, *argv]
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(spans_path)
            tracer.adopt(child["spans"])
            tracer.samples.setdefault("cli.import_ms", []).append(child["import_ms"])
        expect(done.returncode == 0, f"exit code {done.returncode}: {done.stderr.decode()[-300:]}")
        expect(not done.stderr, f"unexpected stderr: {done.stderr.decode()[-300:]}")
        expect(done.stdout.decode("utf-8") == stdout, f"stdout differs for {argv}")
        expect(_read_out(argv) == image, f"output image differs for {argv}")

    return op


# -- pooled-cold ------------------------------------------------------------------

# One pass of lattice kinds.  ("ps", k, agents) is the powerset of k
# generators; ("ds", size, agents) a random downset lattice of about `size`
# elements; ("stack", X) a 64-element powerset with M3 or N5 stacked on top.
# An operation's cost grows about as the 2.3rd power of the lattice size.  The
# machine the benchmark runs on may slow down by about 1.65 times for seconds
# at a time.  A quantile that sits inside a cluster of equal costs then jumps
# from the fast cluster to the slow one as soon as about half of the run is
# slow; on an even ladder of costs it moves in step with the share of slow
# time.  So the downset sizes climb by a factor of about 1.06 (costs by about
# 1.13) through the ten operations around the median and the seven around the
# 90th percentile, and more loosely elsewhere.
COLD_PATTERN = [
    ("stack", "M3"), ("ds", 57, 3), ("ds", 140, 2), ("ds", 24, 2), ("ps", 6, 3), ("ds", 85, 3),
    ("ds", 44, 4), ("ds", 63, 2), ("ps", 7, 3), ("ds", 32, 3), ("ds", 51, 4), ("stack", "N5"),
    ("ds", 162, 2), ("ds", 67, 3), ("ds", 28, 4), ("ps", 8, 2), ("ds", 54, 2), ("ds", 40, 3),
    ("ds", 130, 3), ("ds", 71, 4), ("stack", "M3"), ("ds", 48, 3), ("ps", 6, 4), ("ds", 175, 2),
    ("ds", 36, 2), ("ds", 60, 4), ("ps", 7, 2), ("ds", 100, 2), ("ds", 75, 3), ("ds", 150, 3),
]


def _downsets_near(rng: random.Random, size: int, draws: int = 30):
    """Of `draws` random downset lattices, the one whose size is nearest `size`
    on a log scale; nearly always within 6% of it.  A fixed number of draws
    makes set-up cost the same for every seed."""
    k, density = (8, 0.35) if size < 36 else (8, 0.25) if size < 64 else (9, 0.25) if size < 110 else (9, 0.15)
    names = [f"e{p}" for p in range(k)]
    candidates = [inputs.Downsets(inputs.random_poset(rng, k, density), names) for _ in range(draws)]
    return min(candidates, key=lambda lat: abs(math.log(lat.n / size)))


def setup_pooled_cold(seed: int, work: str, pattern=COLD_PATTERN):
    ops = []
    for i, kind in enumerate(pattern):
        rng = _rng(seed, "pooled-cold", i)
        if kind[0] == "stack":
            text = inputs.dump(inputs.stacked_system_doc(rng, inputs.powerset(6), kind[1], rng.randint(2, 4)))
            ops.append(_cold_op(text, None))
            continue
        lat = inputs.powerset(kind[1]) if kind[0] == "ps" else _downsets_near(rng, kind[1])
        irr = {str(a + 1): lat.random_agent(rng) for a in range(kind[2])}
        text = inputs.dump(inputs.agent_system_doc(lat, irr))
        ops.append(_cold_op(text, lat.pooled(list(irr.values()))))
    return ops


def _cold_op(text: str, expected: list[int] | None):
    expected = None if expected is None else tuple(expected)

    def op(tracer):
        scs = spaces.Scs.from_json(json.loads(text))
        names = sorted(scs.agents)
        if expected is None:
            for method in ("tuple", "subtract"):
                try:
                    distributed.delta_group(scs, names, method)
                except NotDistributive:
                    continue
                raise Wrong(f"{method}: non-distributive lattice was not refused")
            return
        by_tuple = distributed.delta_group(scs, names, "tuple")
        by_subtract = distributed.delta_group(scs, names, "subtract")
        expect(by_tuple.images == by_subtract.images, "tuple and subtract disagree")
        expect(by_tuple.images == expected, "pooled space differs from the reference")
        labels = scs.lattice.labels
        table = {labels[c]: labels[y] for c, y in enumerate(by_tuple.images)}
        json.dumps({"group": names, "method": "tuple", "delta": table}, ensure_ascii=False, indent=1)

    return op


# -- pooled-warm ------------------------------------------------------------------

# (lattice, agents, projection points) per operation; "big" is the
# 512-element powerset and "mid" the ~256-element downset lattice.  The cost
# grows with the agents (the family covers every subgroup), with the points
# and with the lattice.  These choices give a ladder of costs from about 40 ms
# to about 600 ms whose steps are about 1.1 times around the median and the
# 90th percentile, for the reason given at COLD_PATTERN.
WARM_PATTERN = [
    ("mid", 2, 1), ("big", 2, 3), ("mid", 3, 2), ("mid", 4, 1), ("mid", 2, 2), ("big", 3, 1),
    ("mid", 3, 4), ("mid", 2, 4), ("big", 2, 1), ("mid", 4, 4), ("mid", 2, 1), ("big", 2, 4),
    ("mid", 3, 1), ("mid", 5, 1), ("mid", 2, 3), ("big", 2, 2), ("mid", 4, 2), ("mid", 2, 2),
    ("mid", 4, 3), ("mid", 3, 3),
]


def build_warm_lattices(seed: int, *, ground: int = 9, mid_points: int = 11,
                        mid_size: tuple[int, int] = (240, 272)):
    """Set-up of pooled-warm: build both lattices and warm every cache the
    operations read."""
    rng = _rng(seed, "pooled-warm", -1)
    big = inputs.powerset(ground)
    mid = inputs.sized_downsets(rng, mid_points, 0.15, *mid_size, "e")
    pairs = {
        "big": (big, lattice.powerset_lattice([f"g{p}" for p in range(ground)])),
        "mid": (mid, lattice.downset_lattice(np.array(mid.leq_matrix(), dtype=bool))),
    }
    for ref, lat in pairs.values():
        if list(lat.labels) != ref.labels:
            raise RuntimeError("latspace numbers the lattice differently than expected")
        lat.distributivity()
        lat.subtract_table
        lat.irreducibles
        lat.join_rows, lat.meet_rows, lat.leq_rows, lat.down_packed_lookup
    return pairs


def setup_pooled_warm(seed: int, work: str, pattern=WARM_PATTERN, **sizes):
    pairs = build_warm_lattices(seed, **sizes)
    ops = []
    for i, (which, count, projections) in enumerate(pattern):
        rng = _rng(seed, "pooled-warm", i)
        ref, lat = pairs[which]
        irr = {str(a + 1): ref.random_agent(rng) for a in range(count)}
        expected = {
            frozenset(group): tuple(ref.pooled([irr[a] for a in group]))
            for group in inputs.subgroups(sorted(irr))
        }
        images = {name: tuple(ref.extend(v)) for name, v in irr.items()}
        points = [rng.randrange(ref.n) for _ in range(projections)]
        ops.append(_warm_op(lat, images, expected, points))
    return ops


def _warm_op(lat, images, expected, points):
    names = sorted(images)
    full = frozenset(names)

    def op(tracer):
        scs = spaces.Scs(lat, {a: spaces.SpaceFunction(lat, v) for a, v in images.items()})
        by_tuple = distributed.delta_group(scs, names, "tuple")
        by_subtract = distributed.delta_group(scs, names, "subtract")
        expect(by_tuple.images == expected[full], "tuple differs from the reference")
        expect(by_subtract.images == expected[full], "subtract differs from the reference")
        family = distributed.DeltaFamily(scs)
        for group, want in expected.items():
            expect(family.get(group).images == want, f"family entry {sorted(group)} is wrong")
        for c in points:
            gp = distributed.group_projection(scs, names, c)
            jp = distributed.join_projection(scs, names, c)
            delta = np.asarray(family.get(names).images)
            expect((lat.leq[:, gp] == lat.leq[delta, c]).all(), "group projection is not adjoint")
            expect(lat.leq[jp, gp], "join projection exceeds group projection")

    return op


# -- small-exhaustive ---------------------------------------------------------------

# One pass of operation kinds.  "herbrand:N" is a bounded oracle meet on
# herbrand-xy-ab whose enumeration visits about N candidates; the 24 sizes
# climb from 120 to 1800 by a factor of 1.125, an even ladder of costs from
# about 3 ms to about 55 ms.  Eighteen cheap Kripke, Aumann and small oracle
# checks of up to about 7 ms sit below it and the two surveys above it, so the
# median falls on the lower rungs and the 90th percentile on the upper ones;
# the reason for the ladder is given at COLD_PATTERN.
HERBRAND_SIZES = [round(120 * 15 ** (k / 23)) for k in range(24)]
_SMALL_KINDS = [
    "kripke", "survey-M3", "bounded-M3", "distributive", "aumann", "torus", "kripke", "bounded-N5",
    "oplus", "aumann", "distributive", "kripke", "bounded-M3", "aumann", "survey-N5", "distributive",
    "kripke", "torus", "aumann", "bounded-N5", "oplus", "kripke", "distributive", "aumann",
]
SMALL_PATTERN = [
    kind
    for k, other in enumerate(_SMALL_KINDS)
    for kind in (other, f"herbrand:{HERBRAND_SIZES[7 * k % 24]}")
]
# Random pairs drawn per set-up; each rung takes the pair nearest its size.
HERBRAND_DRAWS = 200

_TORUS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _torus_dilations() -> list[tuple[int, ...]]:
    """Images of the dilation by each brush on the 2x2 torus, brushes and
    point sets as bitmasks over _TORUS."""
    out = []
    for brush in range(16):
        images = []
        for xs in range(16):
            hit = 0
            for i, (a, b) in enumerate(_TORUS):
                for j, (c, d) in enumerate(_TORUS):
                    if xs >> i & 1 and brush >> j & 1:
                        hit |= 1 << _TORUS.index(((a + c) % 2, (b + d) % 2))
            images.append(hit)
        out.append(tuple(images))
    return out


def _brute_force_functions(lat) -> list[tuple[int, ...]]:
    """Every space function of a tiny lattice, by testing all self-maps."""
    join = lat.join_table.tolist()
    n, bot = lat.n, lat.bottom_id
    found = []

    def grow(images):
        x = len(images)
        if x == n:
            found.append(tuple(images))
            return
        for y in range(n):
            if x == bot and y != bot:
                continue
            images.append(y)
            if all(join[images[a]][images[b]] == images[join[a][b]]
                   for a in range(x + 1) for b in range(x + 1) if join[a][b] <= x):
                grow(images)
            images.pop()

    grow([])
    return found


def _meet_of(lat, functions, bounds) -> tuple[int, ...]:
    """Point-wise join of every listed function below all `bounds`."""
    join, leq = lat.join_table.tolist(), lat.leq.tolist()
    acc = [lat.bottom_id] * lat.n
    for f in functions:
        if all(leq[f[x]][g[x]] for g in bounds for x in range(lat.n)):
            acc = [join[a][b] for a, b in zip(acc, f)]
    return tuple(acc)


def _survey_expectation(lat, functions) -> tuple[int, int, bool]:
    """(pair count, violating pairs, monotone everywhere) of the raw pair
    formula over every unordered pair, computed by its definition."""
    n = lat.n
    join, meet, leq = lat.join_table.tolist(), lat.meet_table.tolist(), lat.leq.tolist()
    above = [[(a, b) for a in range(n) for b in range(n) if leq[c][join[a][b]]] for c in range(n)]
    pairs = violations = 0
    monotone = True
    for i, f in enumerate(functions):
        for g in functions[i:]:
            pairs += 1
            h = []
            for c in range(n):
                acc = lat.top_id
                for a, b in above[c]:
                    acc = meet[acc][join[f[a]][g[b]]]
                h.append(acc)
            if any(leq[x][y] and not leq[h[x]][h[y]] for x in range(n) for y in range(n)):
                monotone = False
            if h[lat.bottom_id] != lat.bottom_id or any(
                h[join[x][y]] != join[h[x]][h[y]] for x in range(n) for y in range(n)
            ):
                violations += 1
    return pairs, violations, monotone


def _irreducibles(lat) -> list[int]:
    """Elements with exactly one lower cover."""
    leq, n = lat.leq.tolist(), lat.n
    out = []
    for x in range(n):
        below = [y for y in range(n) if y != x and leq[y][x]]
        covers = [y for y in below if not any(z != y and leq[y][z] for z in below)]
        if len(covers) == 1:
            out.append(x)
    return out


def _random_space_function(lat, rng: random.Random) -> tuple[int, ...]:
    """Draw images for the irreducibles, extend by joins, keep a valid draw."""
    join, leq, n = lat.join_table.tolist(), lat.leq.tolist(), lat.n
    irr = sorted(_irreducibles(lat), key=lambda j: sum(leq[x][j] for x in range(n)))
    while True:
        value: dict[int, int] = {}
        for j in irr:
            floor = lat.bottom_id
            for p in value:
                if leq[p][j]:
                    floor = join[floor][value[p]]
            value[j] = rng.choice([y for y in range(n) if leq[floor][y]])
        images = []
        for x in range(n):
            acc = lat.bottom_id
            for j in irr:
                if leq[j][x]:
                    acc = join[acc][value[j]]
            images.append(acc)
        if all(images[join[a][b]] == join[images[a]][images[b]] for a in range(n) for b in range(n)):
            return tuple(images)


def _enumeration_size(lat, bounds) -> int:
    """Candidates the bounded oracle may visit: for every irreducible, the
    number of elements below the meet of the bounds' images."""
    meet, leq = lat.meet_table.tolist(), lat.leq.tolist()
    size = 1
    for j in _irreducibles(lat):
        cap = lat.top_id
        for f in bounds:
            cap = meet[cap][f[j]]
        size *= sum(leq[x][cap] for x in range(lat.n))
    return size


def _herbrand_pairs(lat, rng: random.Random, sizes: list[int]):
    """One (f, f join g) per target size: of HERBRAND_DRAWS random pairs of
    space functions, the one whose bounded enumeration size is nearest the
    target on a log scale, each pair used once."""
    join = lat.join_table.tolist()
    pool = []
    for _ in range(HERBRAND_DRAWS):
        f, g = _random_space_function(lat, rng), _random_space_function(lat, rng)
        upper = tuple(join[a][b] for a, b in zip(f, g))
        pool.append((_enumeration_size(lat, [f, upper]), f, upper))
    picked = []
    for size in sizes:
        best = min(pool, key=lambda item: abs(math.log(item[0] / size)))
        pool.remove(best)
        picked.append(best[1:])
    return picked


def setup_small_exhaustive(seed: int, work: str, pattern=SMALL_PATTERN):
    canonical = lattice.fixtures()
    torus = lattice.powerset_lattice([f"({r},{c})" for r, c in _TORUS])
    dilations = _torus_dilations()
    tiny = {name: canonical[name] for name in ("M3", "N5")}
    functions = {name: _brute_force_functions(lat) for name, lat in tiny.items()}
    surveys = {name: _survey_expectation(lat, functions[name]) for name, lat in tiny.items()}
    herbrand = canonical["herbrand-xy-ab"]
    rungs = [int(kind.partition(":")[2]) for kind in pattern if kind.startswith("herbrand:")]
    herbrand_pairs = iter(_herbrand_pairs(herbrand, _rng(seed, "small-exhaustive", -1), rungs))
    ops = []
    for i, kind in enumerate(pattern):
        rng = _rng(seed, "small-exhaustive", i)
        if kind == "torus":
            # Brushes sharing two points: the oracle visits 16^2 candidates.
            a, b = rng.choice([(a, b) for a in range(16) for b in range(16) if bin(a & b).count("1") == 2])
            ops.append(_oracle_op(torus, [dilations[a], dilations[b]], dilations[a & b]))
        elif kind == "distributive":
            ref = inputs.sized_downsets(rng, rng.randint(2, 4), 0.4, 3, 16, "e")
            lat = lattice.build_lattice(ref.labels, ref.covers())
            irr = [ref.random_agent(rng) for _ in range(rng.randint(2, 3))]
            ops.append(_distributive_op(lat, [ref.extend(v) for v in irr], tuple(ref.pooled(irr))))
        elif kind.startswith("herbrand:"):
            f, upper = next(herbrand_pairs)
            # f lies below f join g, so their meet is f itself.
            ops.append(_oracle_op(herbrand, [f, upper], f))
        elif kind.startswith("bounded-"):
            name = kind.partition("-")[2]
            f, g = rng.choice(functions[name]), rng.choice(functions[name])
            ops.append(_oracle_op(tiny[name], [f, g], _meet_of(tiny[name], functions[name], [f, g])))
        elif kind.startswith("survey-"):
            name = kind.partition("-")[2]
            ops.append(_survey_op(tiny[name], name, len(functions[name]), surveys[name]))
        elif kind == "kripke":
            agents = ["1", "2", "3"][: rng.randint(2, 3)]
            docs = inputs.kripke_models(rng, agents, rng.randint(3, 4))
            formulas = [inputs.random_formula(rng, agents, 3) for _ in range(3)]
            ops.append(_kripke_op(docs, formulas))
        elif kind == "aumann":
            agents = ["1", "2", "3"][: rng.randint(2, 3)]
            ops.append(_aumann_op(inputs.aumann_doc(rng, agents, rng.randint(3, 4))))
        elif kind == "oplus":
            x = inputs.random_points(rng, 8, -2, 2)
            a = inputs.random_points(rng, 3, -1, 1, with_origin=True)
            b = inputs.random_points(rng, 3, -1, 1, with_origin=True)
            ops.append(_oplus_op(x, a, b))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return ops


def _oracle_op(lat, bounds, expected):
    expected = tuple(expected)

    def op(tracer):
        fs = [spaces.SpaceFunction(lat, images) for images in bounds]
        expect(spaces.function_meet_oracle(lat, fs).images == expected, "oracle meet is wrong")

    return op


def _distributive_op(lat, agent_images, expected):
    def op(tracer):
        scs = spaces.Scs(lat, {str(i + 1): spaces.SpaceFunction(lat, v) for i, v in enumerate(agent_images)})
        names = sorted(scs.agents)
        by_oracle = spaces.function_meet_oracle(lat, [scs.agent(a) for a in names])
        by_tuple = distributed.delta_group(scs, names, "tuple")
        expect(by_oracle.images == expected, "oracle differs from the reference")
        expect(by_tuple.images == expected, "tuple formula differs from the reference")

    return op


def _survey_op(lat, name, count, expected):
    pairs, violations, monotone = expected

    def op(tracer):
        survey = distributed.survey_tuple_formula(lat, name)
        expect(survey.function_count == count, "survey enumerated the wrong functions")
        expect(survey.pair_count == pairs, "survey scanned the wrong pairs")
        expect(len(survey.violations) == violations, "survey found the wrong violations")
        expect(survey.monotone_everywhere == monotone, "survey monotonicity verdict is wrong")

    return op


def _kripke_op(docs, formulas):
    names = sorted(docs[0]["rel"])
    groups = [g for g in inputs.subgroups(names) if g]
    truths = [(text, inputs.kripke_truth(docs, tree)) for text, tree in formulas]

    def op(tracer):
        models = [epistemic.KripkeModel.from_json(d) for d in docs]
        ks = epistemic.kripke_to_scs(models)
        for group in groups:
            pooled = ks.delta(group)
            for x in range(ks.lattice.n):
                want = epistemic.kripke_dk(models, group, ks.set_of(x))
                expect(ks.set_of(pooled.images[x]) == want, f"pooled space of {group} differs from kripke_dk")
        for text, truth in truths:
            got = ks.set_of(ks.evaluate(epistemic.parse_formula(text)))
            expect(got == truth, f"formula {text!r} evaluated wrongly")

    return op


def _aumann_op(doc):
    groups = [g for g in inputs.subgroups(sorted(doc["partitions"])) if g]

    def op(tracer):
        struct = epistemic.AumannStructure.from_json(doc)
        induced = epistemic.aumann_to_scs(struct)
        for group in groups:
            pooled = distributed.delta_group(induced.scs, group)
            for x in range(induced.lattice.n):
                want = epistemic.aumann_dk(struct, group, induced.set_of(x))
                expect(induced.set_of(pooled.images[x]) == want, f"pooled space of {group} differs from aumann_dk")

    return op


def _oplus_op(x, a, b):
    expected = frozenset(inputs.dilation(x, a & b))

    def op(tracer):
        px, pa, pb = (morphology.PointSet.of(2, s) for s in (x, a, b))
        pooled = morphology.distributed_dilation(pa, pb, px)
        expect(pooled.points == expected, "pooled dilation is not the dilation by the intersection")
        expect(morphology.oplus_law_rhs(px, pa, pb).points == expected, "intersection law fails")
        closed = morphology.erode(morphology.PointSet.of(2, a & b), pooled)
        expect(px.points <= closed.points, "erosion is not adjoint to dilation")

    return op


# Workloads whose work runs in child processes (peak memory is theirs).
IN_CHILDREN = {"cli-oneshot"}

WORKLOADS = {
    "cli-oneshot": setup_cli_oneshot,
    "pooled-cold": setup_pooled_cold,
    "pooled-warm": setup_pooled_warm,
    "small-exhaustive": setup_small_exhaustive,
}

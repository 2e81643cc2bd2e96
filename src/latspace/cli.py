"""Command-line surface: validation, pooled spaces, projections,
epistemic queries, image morphology, and the selfcheck suite."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from .errors import InvalidElement, LatspaceError
from .lattice import FiniteLattice
# validate_space_function is unused here but stays importable from this module:
# perfbench/tests checks that the span tracer patches it in every namespace.
from .spaces import Scs, validate_space_function  # noqa: F401

# Each command imports the modules it runs, so a command loads only those.
# The parser keeps its own copies of these two constants so that building it
# imports neither distributed nor selfcheck; tests/test_cli.py pins them to
# distributed.METHODS and selfcheck.DEFAULT_SEED.
METHODS = ("tuple", "subtract", "oracle")
DEFAULT_SEED = 7


def _parse_group(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_lattice_check(args) -> int:
    lattice = FiniteLattice.load(args.file)
    distributive, witness = lattice.distributivity()
    print(f"elements: {lattice.n}")
    print(f"bottom: {lattice.labels[lattice.bottom_id]}")
    print(f"top: {lattice.labels[lattice.top_id]}")
    if distributive:
        print("distributive: yes")
    else:
        a, b, c = (lattice.labels[x] for x in witness)
        print(f"distributive: no (witness {a}, {b}, {c})")
    return 0


def cmd_scs_check(args) -> int:
    scs = Scs.load(args.file)
    print(f"elements: {scs.lattice.n}")
    print(f"agents: {len(scs.agents)}")
    for name in sorted(scs.agents):  # Scs.load has validated every agent
        print(f"agent {name}: ok")
    return 0


def cmd_delta(args) -> int:
    from . import distributed

    scs = Scs.load(args.scs)
    group = _parse_group(args.group)
    dfun = distributed.delta_group(scs, group, method=args.method)
    lattice = scs.lattice
    if args.at is not None:
        print(lattice.labels[dfun.images[lattice.id_of(args.at)]])
        return 0
    if args.emit == "json":
        doc = {
            "group": sorted(set(group)),
            "method": args.method,
            "delta": {lattice.labels[c]: lattice.labels[y] for c, y in enumerate(dfun.images)},
        }
        print(json.dumps(doc, ensure_ascii=False, indent=1))
        return 0
    width = max(len(lab) for lab in lattice.labels)
    for c, y in enumerate(dfun.images):
        print(f"{lattice.labels[c]:<{width}} -> {lattice.labels[y]}")
    return 0


def cmd_project(args) -> int:
    from . import distributed

    scs = Scs.load(args.scs)
    lattice = scs.lattice
    c = lattice.id_of(args.at)
    group = scs.group(_parse_group(args.group))
    if args.kind == "join":
        result = distributed.join_projection(scs, group, c)
    else:  # D.2: one agent's projection is its one-agent group's
        if args.kind == "agent" and len(group) != 1:
            raise InvalidElement("--kind agent expects exactly one agent in --group")
        result = distributed.group_projection(scs, group, c)
    print(lattice.labels[result])
    return 0


def cmd_kripke(args) -> int:
    from . import epistemic

    models = [epistemic.KripkeModel.load(p) for p in args.model]
    ks = epistemic.kripke_to_scs(models)
    formula = epistemic.parse_formula(args.formula)
    element = ks.evaluate(formula)
    members = sorted(ks.pointed_label(p) for p in ks.set_of(element))
    print(f"satisfying pointed states ({len(members)}):")
    for label in members:
        print(f"  {label}")
    return 0


def cmd_aumann(args) -> int:
    from . import epistemic

    struct = epistemic.AumannStructure.load(args.model)
    group = _parse_group(args.group)
    event = frozenset(_parse_group(args.event))
    unknown = event - set(struct.states)
    if unknown:
        raise InvalidElement(f"unknown states in event: {sorted(unknown)}")
    induced = epistemic.aumann_to_scs(struct)
    known = induced.set_of(induced.delta(group).images[induced.element_of(event)])
    print(f"distributed knowledge of {{{','.join(sorted(event))}}} "
          f"in group {{{','.join(sorted(set(group)))}}}:")
    print("  {" + ",".join(sorted(known)) + "}")
    return 0


def cmd_morph(args) -> int:
    from . import morphology, pbm

    image, canvas = pbm.read_pbm_with_canvas(args.image)
    se = pbm.read_pbm(args.se, center_origin=True)
    if args.op == "dilate":
        result = morphology.dilate(se, image)
    elif args.op == "erode":
        result = morphology.erode(se, image)
    else:
        if not args.se2:
            raise InvalidElement("--op ddilate needs --se2")
        se2 = pbm.read_pbm(args.se2, center_origin=True)
        result = morphology.distributed_dilation(se, se2, image)
    pbm.write_pbm(args.out, result, canvas=canvas)
    print(f"wrote {args.out}: {len(result)} black pixels")
    return 0


def cmd_selfcheck(args) -> int:
    from . import selfcheck

    return selfcheck.run_selfcheck(args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latspace",
        description="Finite-lattice engine for pooled agent information, "
        "epistemic models, and binary-image morphology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-check", help="validate a lattice file")
    p.add_argument("file")
    p.set_defaults(run=cmd_lattice_check)

    p = sub.add_parser("scs-check", help="validate an agent-system file")
    p.add_argument("file")
    p.set_defaults(run=cmd_scs_check)

    p = sub.add_parser("delta", help="pooled space of a group of agents")
    p.add_argument("--scs", required=True)
    p.add_argument("--group", required=True, help="comma-separated agent names")
    p.add_argument("--method", choices=METHODS, default="tuple")
    p.add_argument("--at", help="single element label to evaluate at")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.set_defaults(run=cmd_delta)

    p = sub.add_parser("project", help="projections of an element")
    p.add_argument("--scs", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--kind", choices=("agent", "join", "group"), default="group")
    p.set_defaults(run=cmd_project)

    p = sub.add_parser("kripke", help="evaluate a modal formula on models")
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat for a model set")
    p.add_argument("--formula", required=True)
    p.set_defaults(run=cmd_kripke)

    p = sub.add_parser("aumann", help="distributed knowledge of an event")
    p.add_argument("--model", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--event", required=True, help="comma-separated state labels")
    p.set_defaults(run=cmd_aumann)

    p = sub.add_parser("morph", help="binary-image morphology")
    p.add_argument("--op", choices=("dilate", "erode", "ddilate"), required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--se", required=True)
    p.add_argument("--se2")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_morph)

    p = sub.add_parser("selfcheck", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.run(args)
        # One write encodes all of stdout before any goes out, so a refusal prints nothing.
        sys.stdout.write(out.getvalue())
        return code
    except LatspaceError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"ERROR FileNotFound: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR FileError: {exc}", file=sys.stderr)
        return 1
    except UnicodeError as exc:  # undecodable PBM text; output or a path not encodable
        print(f"ERROR FormatError: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # deep JSON arrays, formulas, or formula chains
        print("ERROR FormatError: input nests too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

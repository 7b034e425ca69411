"""Command-line front end.

Exit codes: 0 = success / claim verified / function minimal,
1 = claim refuted / function not minimal, 2 = input or usage error.
All numbers on the wire use the exact-number grammar, never floats.
Configuration is by flags only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .additivity import (ADDITIVE, LIMIT_ADDITIVE, NON_ADDITIVE,
                         additive_face_report, minimality_test)
from .covering import components as covering_components
from . import diagram
from .exactnum import parse_qnum
from .perturbation import (lipschitz_epsilon, scaling_epsilon,
                           verify_effective)
from .pwl import SIDE_NAMES, PwlFunction, load as load_pwl_file, to_text
from . import verify as verify_mod


def _load(spec: str):
    """A catalog name or a path to a saved function file."""
    if spec in catalog.CATALOG:
        return catalog.get(spec)
    try:
        return load_pwl_file(spec)
    except FileNotFoundError:
        raise ValueError(f"unknown function {spec!r}: not a catalog name "
                         f"({', '.join(catalog.catalog_names())}) and no "
                         f"such file")
    except OSError as e:
        raise ValueError(f"cannot read function file {spec!r}: "
                         f"{e.strerror or e}")
    except ValueError as e:
        raise ValueError(f"cannot parse function file {spec!r}: {e}")


def _load_pwl(spec: str) -> PwlFunction:
    fn = _load(spec)
    if not isinstance(fn, PwlFunction):
        raise ValueError(f"{spec!r} is not piecewise linear; this command "
                         f"needs a piecewise linear function")
    return fn


def _parse_x(text: str):
    try:
        return parse_qnum(text)
    except ValueError as e:
        raise ValueError(f"cannot parse number {text!r}: {e}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {out!r}: {e.strerror or e}")


def _cmd_eval(args) -> int:
    print(_load(args.func).eval(_parse_x(args.x)))
    return 0


def _cmd_limit(args) -> int:
    fn = _load_pwl(args.func)
    print(fn.limit(_parse_x(args.x), SIDE_NAMES[args.side]))
    return 0


def _cmd_minimality(args) -> int:
    report = minimality_test(_load_pwl(args.func))
    print(report)
    return 0 if report else 1


def _cmd_additive_faces(args) -> int:
    fn = _load(args.func)
    base = fn if isinstance(fn, PwlFunction) else fn.base
    report = additive_face_report(base)
    counts = {ADDITIVE: 0, LIMIT_ADDITIVE: 0, NON_ADDITIVE: 0}
    lines = []
    for cls in report.faces:
        counts[cls.status] += 1
        if cls.status == ADDITIVE:
            lines.append(f"additive        {cls.face.label()}")
        elif cls.status == LIMIT_ADDITIVE:
            vs = ", ".join(f"({u}, {v})" for u, v in cls.zero_vertices)
            lines.append(f"limit-additive  {cls.face.label()} at {vs}")
    print(f"faces: {len(report.faces)}  additive: {counts[ADDITIVE]}  "
          f"limit-additive: {counts[LIMIT_ADDITIVE]}  "
          f"non-additive: {counts[NON_ADDITIVE]}")
    for line in lines:
        print(line)
    return 0


def _cmd_covering(args) -> int:
    result = covering_components(additive_face_report(_load_pwl(args.func)))
    for i, comp in enumerate(result.components):
        ivs = " ".join(f"({a}, {b})" for a, b in comp)
        print(f"component {i}: {ivs}")
    print("uncovered: " + (" ".join(f"({a}, {b})" for a, b in
                                    result.uncovered) or "none"))
    print(f"moves: {len(result.moves)}")
    return 0


def _cmd_perturbation_rank(args) -> int:
    fn = _load_pwl(args.func)
    if fn.name != "kzh":
        raise ValueError("the certified equation selection is built for "
                         "the catalog function 'kzh'")
    report = verify_mod.verify_kzh_perturbation_rank(fn)
    print(report)
    return 0 if report else 1


def _cmd_epsilon(args) -> int:
    if args.check and args.kind != "lipschitz":
        raise ValueError("--check applies to epsilon lipschitz only")
    fn = _load_pwl(args.func)
    pert = _load_pwl(args.perturbation)
    if args.kind == "lipschitz":
        res = lipschitz_epsilon(fn, pert)
        print(f"m = {res.m}")
        print(f"M = {res.M}")
        print(f"C = {res.C}")
        print(f"epsilon = {res.eps}")
        if args.check:
            eff = verify_effective(fn, pert, res.eps)
            print(f"minimal at +epsilon: {bool(eff.plus)}")
            print(f"minimal at -epsilon: {bool(eff.minus)}")
            return 0 if eff else 1
        return 0
    eps = scaling_epsilon(fn, pert)
    print(f"epsilon = {eps}")
    return 0


_SUITES = {
    "psi": lambda: [verify_mod.verify_psi_separation()],
    "kzh-slacks": lambda: [verify_mod.verify_kzh_claim_slacks()],
    "kzh-rank": lambda: [verify_mod.verify_kzh_perturbation_rank()],
    "lifted": lambda: [verify_mod.verify_lifted()],
    "all": verify_mod.verify_all,
}


def _cmd_verify(args) -> int:
    reports = _SUITES[args.suite]()
    if args.json:
        doc = {"schema": "groupcut-verify/1",
               "reports": [r.as_dict() for r in reports]}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in reports:
            print(r)
    return 0 if all(reports) else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.catalog_names():
            print(name)
        return 0
    if args.name is None:
        raise ValueError("catalog export needs a function name")
    fn = _load(args.name)
    if not isinstance(fn, PwlFunction):
        raise ValueError(f"{args.name!r} is not piecewise linear and has "
                         f"no exact finite text form")
    _emit(to_text(fn), args.out)
    return 0


def _cmd_diagram(args) -> int:
    if args.format == "json":
        for flag in ("no_additive", "no_cones", "color_by_nf"):
            if getattr(args, flag):
                raise ValueError(f"--{flag.replace('_', '-')} applies to "
                                 f"--format svg only")
    fn = _load(args.func)
    if args.format == "svg":
        text = diagram.render_svg(
            fn, show_additive=not args.no_additive,
            show_limit_cones=not args.no_cones, color_by_nf=args.color_by_nf)
    else:
        text = diagram.sidecar_to_json(diagram.render_sidecar(fn))
    _emit(text, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="groupcut",
        description="Exact cut-generating functions: evaluation, "
                    "minimality, additivity structure, claim suites, "
                    "and diagrams.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function at a point")
    p.add_argument("func")
    p.add_argument("x")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("limit", help="one-sided limit at a point")
    p.add_argument("func")
    p.add_argument("x")
    p.add_argument("side", choices=sorted(SIDE_NAMES))
    p.set_defaults(run=_cmd_limit)

    p = sub.add_parser("minimality", help="exact minimality test")
    p.add_argument("func")
    p.set_defaults(run=_cmd_minimality)

    p = sub.add_parser("additive-faces",
                       help="classify every face of the complex")
    p.add_argument("func")
    p.set_defaults(run=_cmd_additive_faces)

    p = sub.add_parser("covering",
                       help="directly/indirectly covered intervals")
    p.add_argument("func")
    p.set_defaults(run=_cmd_covering)

    p = sub.add_parser("perturbation-rank",
                       help="rank certificate for the equation system")
    p.add_argument("func", nargs="?", default="kzh")
    p.set_defaults(run=_cmd_perturbation_rank)

    p = sub.add_parser("epsilon", help="perturbation step sizes")
    p.add_argument("kind", choices=("lipschitz", "scaling"))
    p.add_argument("func")
    p.add_argument("perturbation")
    p.add_argument("--check", action="store_true",
                   help="lipschitz only: verify minimality at +/- epsilon")
    p.set_defaults(run=_cmd_epsilon)

    p = sub.add_parser("verify", help="run a claim suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("catalog", help="built-in functions")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None, help="write to a file")
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("diagram", help="render the complex as SVG or JSON")
    p.add_argument("func")
    p.add_argument("--format", choices=("svg", "json"), default="svg")
    p.add_argument("--out", default=None, help="write to a file")
    p.add_argument("--no-additive", action="store_true",
                   help="skip shading of additive faces")
    p.add_argument("--no-cones", action="store_true",
                   help="skip limit-cone arrows")
    p.add_argument("--color-by-nf", action="store_true",
                   help="shade 2-faces by how many special intervals "
                        "their projections meet")
    p.set_defaults(run=_cmd_diagram)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

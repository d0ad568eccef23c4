"""Command line front end.

Subcommands mirror the library layers:

  check       validate a task document and nothing else
  cohomology  Betti numbers (and Hopf-checked induced maps given a map)
  lefschetz   the full three-way report on one task document
  shadow      nilshadow of a split presentation, with the det comparison
  torus       fixed points of an integer torus map, with the cochain cross-check
  catalog     list / show / export / selftest over the built-in entries

Exit codes: 0 success, 1 a requested verification came out false, 2 invalid
input (any JSON decoder failure included), 3 any other failure: an internal
consistency failure, a bug, not your fault.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as catalog_mod
from .documents import (InvalidDocument, algebra_to_doc, cap_cochains,
                        cap_literal, load_json, matrix_to_doc, task_from_doc)
from .lefschetz import coefficient_system, twisted_lefschetz
from .liealg import check_morphism, is_nilpotent, is_solvable, validate
from .nilshadow import (SplitPresentation, build_shadow, shadow_report,
                        validate_split)
from .ratlin import InvalidInput, format_rational, parse_integer
from .repn import validate_intertwiner, validate_rep
from .torus_oracle import TorusMap, cross_check_with_ce

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3

# every other exception, a ValueError that is not InvalidInput (a shape
# mismatch, say) included, is a library bug
_INPUT_ERRORS = (InvalidInput, OSError)


def main(argv=None) -> int:
    # a label the locale cannot encode prints backslash-escaped, as on stderr
    if hasattr(sys.stdout, "reconfigure"):   # not on a StringIO
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_INVALID_INPUT
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietrace",
        description="exact Lefschetz numbers via Lie algebra cohomology")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="validate a task document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("cohomology", help="Betti numbers and induced maps")
    p.add_argument("file")
    p.add_argument("--module", help="JSON file overriding the document module")
    p.add_argument("--json", action="store_true")
    p.add_argument("--verbose", action="store_true",
                   help="include representative cocycles")
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("lefschetz", help="three-way Lefschetz report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lefschetz)

    p = sub.add_parser("shadow", help="nilshadow and determinant comparison")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_shadow)

    p = sub.add_parser("torus", help="fixed points of an integer torus map")
    p.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ',' e.g. '2,1;1,1'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_torus)

    p = sub.add_parser("catalog", help="built-in algebra catalog")
    p.add_argument("action", choices=["list", "show", "export", "selftest"])
    p.add_argument("name", nargs="?")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _load_task(path: str, module_path: str | None = None):
    doc = load_json(path)
    module_doc = load_json(module_path, "/module") if module_path else None
    return task_from_doc(doc, module_doc)


def _split_presentation(task) -> SplitPresentation:
    return SplitPresentation(algebra=task.algebra, nil_ideal=task.split[0],
                             complement=task.split[1])


def _check_split(task) -> list[str]:
    """Check the document's split, if any.  No library call reads it, and
    cohomology and lefschetz check it last, after their call's checks."""
    if task.split is None:
        return []
    validate_split(_split_presentation(task))
    return ["split: ok (nilpotent ideal, abelian complement)"]


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _cmd_check(args) -> int:
    task = _load_task(args.file)
    if task.morphism is not None:
        check_morphism(task.morphism)
    validate(task.algebra)
    validate_rep(task.module)
    lines = [f"algebra: ok (dim {task.algebra.dim}, Jacobi verified)",
             f"module: ok (dim {task.module.dim})"]
    if task.morphism is not None:
        lines.append("map: ok (brackets preserved)")
    if task.intertwiner is not None:
        validate_intertwiner(task.intertwiner)
        lines.append("intertwiner: ok (equivariant)")
    for line in lines + _check_split(task):
        print(line)
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    task = _load_task(args.file, args.module)
    report = {}
    if task.morphism is not None:   # the report checks the map first
        maps = twisted_lefschetz(task.algebra, task.module, task.morphism,
                                 task.intertwiner).cohomology_maps
        report["maps"] = {str(p): matrix_to_doc(m) for p, m in enumerate(maps)}
    system = coefficient_system(task.algebra, task.module)  # the report's, if any
    report.update(betti=[d.betti for d in system.cohomology],
                  dims=list(system.complex.dims))
    _check_split(task)
    if args.verbose:
        report["representatives"] = {
            str(p): matrix_to_doc(d.representative_basis)
            for p, d in enumerate(system.cohomology)}
    if args.json:
        _print_json(report)
        return EXIT_OK
    print("betti:", " ".join(str(b) for b in report["betti"]))
    print("dims: ", " ".join(str(d) for d in report["dims"]))
    for p, rows in report.get("maps", {}).items():
        print(f"H^{p} map:",
              "; ".join(" ".join(row) for row in rows) or "(zero-dimensional)")
    for p, rows in report.get("representatives", {}).items():
        for v in rows:
            print(f"H^{p} representative:", " ".join(v))
    return EXIT_OK


def _cmd_lefschetz(args) -> int:
    task = _load_task(args.file)
    if task.morphism is None:
        raise InvalidDocument("/map", "lefschetz needs a map")
    report = twisted_lefschetz(task.algebra, task.module, task.morphism,
                               task.intertwiner)
    _check_split(task)
    doc = {
        "betti": list(report.betti),
        "dims": list(report.dims),
        "traces": [format_rational(t) for t in report.cohomology_traces],
        "lefschetz": format_rational(report.lefschetz),
        "hopf": format_rational(report.hopf),
        "det_i_minus_a": format_rational(report.det_i_minus_a),
        "agree": report.agree,
    }
    if report.note:
        doc["note"] = report.note
    if args.json:
        _print_json(doc)
    else:
        print("betti:  ", " ".join(str(b) for b in report.betti))
        print("traces: ", " ".join(doc["traces"]))
        print("lefschetz (cohomology):", doc["lefschetz"])
        print("hopf (cochain):        ", doc["hopf"])
        print("det(I - A):            ", doc["det_i_minus_a"])
        print("agree:", "yes" if report.agree else "no")
        if report.note:
            print("note:", report.note)
    return EXIT_OK if report.agree else EXIT_VERDICT_FALSE


def _cmd_shadow(args) -> int:
    task = _load_task(args.file)
    if task.split is None:
        raise InvalidDocument("/split", "shadow needs a split presentation "
                              "(or a catalog algebra that carries one)")
    split = _split_presentation(task)
    doc, verdict = {}, True
    if task.morphism is None:
        result = build_shadow(split)   # validates the split
    else:
        result, map_report, lef = shadow_report(split, task.morphism)
        # no cohomological side, and no agreement, for a non-morphism
        verdict = lef is not None and lef.lefschetz == map_report.det_input
        doc = {"is_shadow_morphism": map_report.is_shadow_morphism,
               "det_i_minus_t": format_rational(map_report.det_input),
               "agree": verdict}
        if lef is not None:
            doc["shadow_lefschetz"] = format_rational(lef.lefschetz)
    # no library call reads the module or the intertwiner
    validate_rep(task.module)
    if task.intertwiner is not None:
        validate_intertwiner(task.intertwiner)
    doc.update(shadow=algebra_to_doc(result.shadow), shadow_nilpotent=True)
    if args.json:
        _print_json(doc)
    else:
        print("shadow brackets:", _fmt_brackets(result.shadow))
        if task.morphism is not None:
            print("induced map is shadow morphism:",
                  "yes" if doc["is_shadow_morphism"] else "no")
            print("det(I - T):", doc["det_i_minus_t"])
            if "shadow_lefschetz" in doc:
                print("shadow lefschetz:", doc["shadow_lefschetz"])
            print("agree:", "yes" if verdict else "no")
    return EXIT_OK if verdict else EXIT_VERDICT_FALSE


def _cmd_torus(args) -> int:
    matrix = _parse_int_matrix(args.matrix)
    report, ce_lefschetz, agree = cross_check_with_ce(TorusMap(matrix=matrix))
    doc = {"count": report.count,
           "lefschetz": report.lefschetz,
           "index_each": report.index_each,
           "points": [[format_rational(x) for x in pt] for pt in report.points],
           "ce_lefschetz": format_rational(ce_lefschetz),
           "agree": agree}
    if args.json:
        _print_json(doc)
    else:
        print("fixed points:", report.count)
        for pt in doc["points"]:
            print("  ", "(" + ", ".join(pt) + ")")
        print("lefschetz:", report.lefschetz,
              f"(index {report.index_each} each)")
        print("cochain cross-check:", doc["ce_lefschetz"],
              "agree" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_VERDICT_FALSE


def _parse_int_matrix(text: str):
    rows = []
    for chunk in text.split(";"):
        row = []
        for cell in map(str.strip, chunk.split(",")):
            cap_literal(cell, "/matrix")   # before int() meets its limit
            try:
                row.append(parse_integer(cell))
            except ValueError:
                raise InvalidDocument("/matrix", f"not an integer: {cell!r}")
        rows.append(tuple(row))
    if any(len(r) != len(rows) for r in rows):
        raise InvalidDocument("/matrix", "matrix must be square")
    cap_cochains(len(rows), 1, "/matrix")   # before any determinant
    return tuple(rows)


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_mod.list_entries():
            print(name)
        return EXIT_OK
    if args.action == "selftest":
        for line in catalog_mod.selftest():
            print(line)
        print("catalog selftest: all entries pass")
        return EXIT_OK
    if not args.name:
        raise InvalidDocument("/name", f"catalog {args.action} needs a name")
    try:
        entry = catalog_mod.get(args.name)
    except catalog_mod.UnknownEntry as exc:
        raise InvalidDocument("/name", str(exc))
    if args.action == "export":
        _print_json(catalog_mod.export(args.name))
        return EXIT_OK
    kind = ("nilpotent" if is_nilpotent(entry.algebra) else
            "solvable" if is_solvable(entry.algebra) else "neither")
    print(f"{entry.name}: dim {entry.algebra.dim}, {kind}")
    print(f"  brackets: {_fmt_brackets(entry.algebra)}")
    if entry.grading:
        print(f"  grading: {entry.grading}")
    if entry.split and entry.split[1]:
        print(f"  split: ideal {list(entry.split[0])}, "
              f"complement {list(entry.split[1])}")
    if entry.notes:
        print(f"  notes: {entry.notes}")
    return EXIT_OK


def _fmt_brackets(algebra) -> str:
    parts = []
    for (i, j) in sorted(algebra.brackets):
        comps = algebra.brackets[(i, j)]
        terms = " + ".join(
            (f"{algebra.labels[k]}" if c == 1 else
             f"({format_rational(c)}){algebra.labels[k]}")
            for k, c in sorted(comps.items()))
        parts.append(f"[{algebra.labels[i]},{algebra.labels[j]}] = {terms}")
    return "; ".join(parts) if parts else "abelian"


if __name__ == "__main__":
    sys.exit(main())

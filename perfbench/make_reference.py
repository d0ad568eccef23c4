"""Regenerate perfbench/reference.json, the frozen table the checks read.

    python3 perfbench/make_reference.py

Run from the root of a lietrace checkout.  For every input the workloads can
draw it records the Betti numbers and L from lietrace, after checking each
L against det(I - f) * tr(xi) computed independently in workloads.py, and
the sha256 of every CLI document's stdout (exit code 0 required).  The table
is frozen: regenerate it only when the expected output is meant to change,
and say so in the change that does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import workloads as W


def lefschetz(lib, algebra, module_kind, f_rows, xi_rows):
    f = lib.liealg.endomorphism(algebra, f_rows)
    module = (lib.repn.adjoint_module(algebra) if module_kind == "adj"
              else lib.repn.trivial_module(algebra))
    xi = lib.repn.Intertwiner(morphism=f, module=module, matrix=xi_rows)
    report = lib.lefschetz.twisted_lefschetz(algebra, module, f, xi)
    trace_xi = sum((Fraction(xi_rows[i][i]) for i in range(len(xi_rows))),
                   Fraction(0))
    expected = W.det(W.i_minus(f_rows)) * trace_xi
    if report.lefschetz != expected or report.hopf != expected:
        raise SystemExit(f"L mismatch: {report.lefschetz} != {expected}")
    return list(report.betti), W.fmt(report.lefschetz)


def graded(lib, table, case, algebra, weights, module_kind, ts):
    entry = table.setdefault(case, {"betti": None, "L": {}})
    for t in ts:
        diag = [t ** w for w in weights]
        xi = (W.diag_rows([1 / d for d in diag]) if module_kind == "adj"
              else [[Fraction(1)]])
        betti, value = lefschetz(lib, algebra, module_kind, W.diag_rows(diag), xi)
        entry["betti"] = betti
        entry["L"][W.fmt(t)] = value
        print(case, W.fmt(t), value, flush=True)


def shadow_entries(lib, table):
    sol3 = lib.catalog.get("sol3")
    splits = [
        ("sol3/shadow", sol3.algebra, sol3.split, 2, W.sol3_flip),
        ("split6/shadow", lib.liealg.LieAlgebra(dim=6, brackets=W.SPLIT6_BRACKETS),
         W.SPLIT6_SPLIT, 3, W.split6_flip),
    ]
    for case, algebra, (ideal, comp), nparams, make in splits:
        split = lib.nilshadow.SplitPresentation(algebra=algebra, nil_ideal=ideal,
                                                complement=comp)
        result = lib.nilshadow.build_shadow(split)
        entry = table.setdefault(case, {"betti": None, "L": {}})
        for params in itertools.product(W.FLIP_PARAMS, repeat=nparams):
            rows = make(*params)
            t = lib.liealg.endomorphism(algebra, rows)
            map_report = lib.nilshadow.induced_shadow_map(result, t)
            if not map_report.is_shadow_morphism:
                raise SystemExit(f"{case} {params}: not a shadow morphism")
            betti, value = lefschetz(lib, result.shadow, "triv",
                                     [list(r) for r in map_report.shadow_map.matrix.entries],
                                     [[Fraction(1)]])
            entry["betti"] = betti
            entry["L"][",".join(W.fmt(p) for p in params)] = value


def main():
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    ref = {"deep": {}, "sweep": {}, "cli": {}}
    env = run.process_env()
    docs_dir = run.OUT / "reference-docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    try:
        for key, spec in sorted(W.cli_doc_space().items()):
            argv = W.write_cli_doc(lib, key, spec, str(docs_dir))
            proc = subprocess.run([sys.executable, "-m", "lietrace.cli", *argv],
                                  cwd=run.ROOT, env=env, capture_output=True,
                                  check=True)
            ref["cli"][key] = hashlib.sha256(proc.stdout).hexdigest()
    finally:
        shutil.rmtree(docs_dir)
    for case, source, module_kind, _ in W.DEEP_CASES:
        algebra, weights = W._algebra(lib, source)
        graded(lib, ref["deep"], case, algebra, weights, module_kind, W.T_DEEP)
    for name in W.NILPOTENT_ENTRIES:
        entry = lib.catalog.get(name)
        case = f"{name}/triv"
        graded(lib, ref["sweep"], case, entry.algebra, entry.grading, "triv",
               W.T_SWEEP)
        for i, f in enumerate(lib.catalog.sample_endomorphisms(entry)):
            rows = [list(r) for r in f.matrix.entries]
            _, value = lefschetz(lib, entry.algebra, "triv", rows, [[Fraction(1)]])
            ref["sweep"][case]["L"][f"sample{i}"] = value
    for name in W.ADJOINT_ENTRIES:
        entry = lib.catalog.get(name)
        graded(lib, ref["sweep"], f"{name}/adj", entry.algebra, entry.grading,
               "adj", W.T_SWEEP)
    shadow_entries(lib, ref["sweep"])
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Seeded inputs and independent checks for the perfbench workloads.

Each build_* function takes the freshly imported library namespace, a seed
and the frozen reference table, and returns a list of `Op`s: a
zero-argument call into lietrace plus a check of its result.  Inputs come only from the seed;
every check is computed here, from the inputs, without calling the code
being measured, or read from the frozen table.

Exact helpers in this file (`det`, `i_minus`, `fmt`) deliberately do not
reuse lietrace.ratlin: a check that shares code with the thing it checks
cannot catch that code going wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckFailed(Exception):
    """A result disagreed with its independent check or the frozen table."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliDoc:
    """One `lietrace` command line; `argv` excludes the program name."""
    key: str
    argv: list
    expected_sha256: str


# ---------------------------------------------------------------------------
# input spaces.  Every seeded choice is drawn from a finite set, so the frozen
# reference table can hold the answer for each possible input.
# ---------------------------------------------------------------------------

# deep: integer scalings only.  Each case has a fixed |t| (DEEP_CASES) and
# the seed draws its sign, so entry size, which sets Fraction cost, is the
# same for every seed.
T_DEEP = [Fraction(2), Fraction(-2), Fraction(3), Fraction(-3)]
T_SWEEP = sorted({Fraction(p, q) for p in range(-4, 5) if p for q in (1, 2, 3)})
# T_SWEEP grouped by height max(|p|, q), which sets the size of t^w and so
# the cost of a report; drawing evenly from every group keeps the cost of a
# round alike across seeds.
T_STRATA = [[t for t in T_SWEEP if max(abs(t.numerator), t.denominator) == h]
            for h in (1, 2, 3, 4)]
# CLI lefschetz documents draw t from one height, so that which document is
# the slowest, and by how much, does not depend on the seed.
T_CLI = T_STRATA[1]
XI_SCALARS = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
FLIP_PARAMS = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
               Fraction(-3, 2)]

NILPOTENT_ENTRIES = ["abelian_1", "abelian_2", "abelian_3", "abelian_4",
                     "heisenberg3", "heisenberg5", "filiform4"]
ADJOINT_ENTRIES = ["abelian_1", "abelian_2", "abelian_3", "abelian_4",
                   "heisenberg3", "filiform4"]           # dim <= 4
CLI_LEFSCHETZ_ENTRIES = ["heisenberg3", "filiform4", "abelian_3", "heisenberg5"]
CLI_TORUS_MATRICES = [
    "2,1;1,1", "0,-1;1,0", "3,1;1,2", "2,0;0,3", "-1,0;0,-1", "1,2;3,4",
    "2,1,0;0,2,1;0,0,2", "0,0,1;1,0,0;0,1,1", "2,-1,0;1,1,1;0,1,3",
    "-1,1,0;0,-1,1;1,0,-1", "3,0,1;1,2,0;0,1,2", "2,1,1;1,3,1;1,1,4",
]


def filiform(n: int):
    """Model filiform algebra [e0, ei] = e(i+1), weights (1, 1, 2, ..., n-1)."""
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return brackets, (1,) + tuple(range(1, n))


# split solvable algebra of dimension 6: complement e0 acting on the
# rank-2 Heisenberg ideal (e1..e5, [e1,e2] = [e3,e4] = e5) by the semisimple
# part diag(1, -1, 1, -1, 0) plus the nilpotent part e3 -> e1, e2 -> -e4.
SPLIT6_BRACKETS = {(0, 1): {1: 1}, (0, 2): {2: -1, 4: -1}, (0, 3): {3: 1, 1: 1},
                   (0, 4): {4: -1}, (1, 2): {5: 1}, (3, 4): {5: 1}}
SPLIT6_SPLIT = ((1, 2, 3, 4, 5), (0,))


def sol3_flip(a, b):
    """e0 -> -e0, e1 -> a e2, e2 -> b e1: an endomorphism of sol3."""
    return [[-1, 0, 0], [0, 0, b], [0, a, 0]]


def split6_flip(x, u, v):
    """e0 -> -e0, swapping the +1 and -1 weight blocks of ad e0."""
    z = -v * x / u
    cols = {0: {0: -1}, 1: {4: x}, 2: {3: u, 1: v}, 3: {2: x, 4: z},
            4: {1: u}, 5: {5: -x * u}}
    return [[Fraction(cols[j].get(i, 0)) for j in range(6)] for i in range(6)]


# ---------------------------------------------------------------------------
# exact helpers, independent of lietrace.ratlin
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    return str(Fraction(x))


def det(rows) -> Fraction:
    """Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                factor = a[r][c] / a[c][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return out


def i_minus(rows):
    n = len(rows)
    return [[Fraction(i == j) - Fraction(rows[i][j]) for j in range(n)]
            for i in range(n)]


def diag_rows(values):
    n = len(values)
    return [[values[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_report(report, case: str, table_l: str, det_i_minus_f: Fraction,
                 trace_xi: Fraction, betti, trivial_identity: bool) -> None:
    """The checks every Lefschetz report gets."""
    value = det_i_minus_f * trace_xi
    expect(report.hopf == report.lefschetz,
           f"{case}: hopf {report.hopf} != lefschetz {report.lefschetz}")
    expect(report.lefschetz == value,
           f"{case}: lefschetz {report.lefschetz} != det(I-f)*tr(xi) {value}")
    expect(report.det_i_minus_a == det_i_minus_f,
           f"{case}: det_i_minus_a {report.det_i_minus_a} != {det_i_minus_f}")
    expect(report.agree == (report.lefschetz == det_i_minus_f),
           f"{case}: agree flag {report.agree} is wrong")
    if trivial_identity:
        expect(report.agree, f"{case}: trivial-module nilpotent case disagrees")
    expect(list(report.betti) == list(betti),
           f"{case}: betti {list(report.betti)} != reference {list(betti)}")
    expect(fmt(report.lefschetz) == table_l,
           f"{case}: lefschetz {fmt(report.lefschetz)} != reference {table_l}")


# ---------------------------------------------------------------------------
# Lefschetz cases on graded maps
# ---------------------------------------------------------------------------

def lefschetz_case(lib, label, algebra, module, f_rows, xi_rows, entry, key,
                   xi_scale=Fraction(1)):
    """twisted_lefschetz on f = f_rows with intertwiner xi_rows.

    `entry` is the reference-table row; entry["L"][key] is L for the table's
    intertwiner, which `xi_scale` rescales (a scalar xi on the trivial
    module multiplies every cochain trace).
    """
    f = lib.liealg.endomorphism(algebra, f_rows)
    xi = lib.repn.Intertwiner(morphism=f, module=module, matrix=xi_rows)
    det_value = det(i_minus(f_rows))
    trace_xi = sum((xi_rows[i][i] for i in range(len(xi_rows))), Fraction(0))
    table_l = fmt(Fraction(entry["L"][key]) * xi_scale)
    trivial_identity = module.dim == 1 and trace_xi == 1
    lefschetz = lib.lefschetz

    def call():
        return lefschetz.twisted_lefschetz(algebra, module, f, xi)

    def check(report):
        check_report(report, label, table_l, det_value, trace_xi,
                     entry["betti"], trivial_identity)
    return Op(label, call, check)


def graded_case(lib, ref, case, algebra, weights, t, module_kind,
                xi_scalar=Fraction(1)):
    """f = diag(t^w).  Adjoint cases use xi = f^-1, trivial ones a scalar."""
    diag = [t ** w for w in weights]
    if module_kind == "adj":
        module = lib.repn.adjoint_module(algebra)
        xi_rows = diag_rows([1 / d for d in diag])
    else:
        module = lib.repn.trivial_module(algebra)
        xi_rows = [[xi_scalar]]
    return lefschetz_case(lib, f"{case} t={fmt(t)}", algebra, module,
                          diag_rows(diag), xi_rows, ref[case], fmt(t), xi_scalar)


def matrix_case(lib, ref, case, algebra, rows, key):
    """A given matrix with the trivial module and xi = 1."""
    return lefschetz_case(lib, f"{case} {key}", algebra,
                          lib.repn.trivial_module(algebra), rows,
                          [[Fraction(1)]], ref[case], key)


def shadow_case(lib, ref, case, split, rows, key):
    """build_shadow -> induced_shadow_map -> twisted_lefschetz on the shadow."""
    nilshadow, lefschetz, repn = lib.nilshadow, lib.lefschetz, lib.repn
    t = lib.liealg.endomorphism(split.algebra, rows)
    det_value = det(i_minus(rows))
    entry = ref[case]

    def call():
        result = nilshadow.build_shadow(split)
        map_report = nilshadow.induced_shadow_map(result, t)
        module = repn.trivial_module(result.shadow)
        s = map_report.shadow_map
        report = lefschetz.twisted_lefschetz(
            result.shadow, module, s, repn.identity_intertwiner(s, module),
            linearization_matrix=s.matrix)
        return map_report, report

    def check(pair):
        map_report, report = pair
        label = f"{case} {key}"
        expect(map_report.is_shadow_morphism, f"{label}: not a shadow morphism")
        expect(map_report.det_input == det_value == map_report.det_shadow,
               f"{label}: det(I-T) {map_report.det_input} / "
               f"{map_report.det_shadow} != {det_value}")
        check_report(report, label, entry["L"][key], det_value, Fraction(1),
                     entry["betti"], True)
    return Op(f"{case} {key}", call, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

DEEP_CASES = [
    # (case, algebra source, module, |t|); filiform6/adj first so that a
    # reader of the trace sees the dominant case at the top
    ("filiform6/adj", ("filiform", 6), "adj", 2),
    ("filiform5/adj", ("filiform", 5), "adj", 3),
    ("heisenberg5/adj", ("catalog", "heisenberg5"), "adj", 2),
    ("filiform7/triv", ("filiform", 7), "triv", 3),
    ("abelian7/triv", ("abelian", 7), "triv", 3),
]
DEEP_TINY = ["filiform7/triv"]


def _algebra(lib, source):
    kind, arg = source
    if kind == "filiform":
        brackets, weights = filiform(arg)
        return lib.liealg.LieAlgebra(dim=arg, brackets=brackets), weights
    if kind == "abelian":
        return lib.liealg.LieAlgebra(dim=arg), (1,) * arg
    entry = lib.catalog.get(arg)
    return entry.algebra, entry.grading


def build_deep(lib, seed, ref, tiny=False):
    rng = random.Random(seed)
    ops = []
    for case, source, module_kind, size in DEEP_CASES:
        t = rng.choice((1, -1)) * Fraction(size)
        if tiny and case not in DEEP_TINY:
            continue
        algebra, weights = _algebra(lib, source)
        ops.append(graded_case(lib, ref["deep"], case, algebra, weights, t,
                               module_kind))
    return ops


SWEEP_GRADED_PER_STRATUM = 4      # per nilpotent entry, trivial module
SWEEP_ADJOINT_PER_STRATUM = 1     # per entry of dim <= 4, adjoint module
SWEEP_SHADOW_PER_CASE = 20


def build_sweep(lib, seed, ref, tiny=False):
    """The small reports, and the torus maps of `torus_ops`."""
    rng = random.Random(seed)
    table = ref["sweep"]
    ops = []
    for name in NILPOTENT_ENTRIES:
        entry = lib.catalog.get(name)
        case = f"{name}/triv"
        for i, f in enumerate(lib.catalog.sample_endomorphisms(entry)):
            rows = [list(r) for r in f.matrix.entries]
            ops.append(matrix_case(lib, table, case, entry.algebra, rows,
                                   f"sample{i}"))
        for stratum in T_STRATA:
            for _ in range(SWEEP_GRADED_PER_STRATUM):
                ops.append(graded_case(lib, table, case, entry.algebra,
                                       entry.grading, rng.choice(stratum),
                                       "triv", rng.choice(XI_SCALARS)))
    for name in ADJOINT_ENTRIES:
        entry = lib.catalog.get(name)
        for stratum in T_STRATA:
            for _ in range(SWEEP_ADJOINT_PER_STRATUM):
                ops.append(graded_case(lib, table, f"{name}/adj", entry.algebra,
                                       entry.grading, rng.choice(stratum), "adj"))
    nilshadow, liealg = lib.nilshadow, lib.liealg
    sol3 = lib.catalog.get("sol3")
    splits = [
        ("sol3/shadow", nilshadow.SplitPresentation(
            algebra=sol3.algebra, nil_ideal=sol3.split[0],
            complement=sol3.split[1]), 2),
        ("split6/shadow", nilshadow.SplitPresentation(
            algebra=liealg.LieAlgebra(dim=6, brackets=SPLIT6_BRACKETS),
            nil_ideal=SPLIT6_SPLIT[0], complement=SPLIT6_SPLIT[1]), 3),
    ]
    for case, split, nparams in splits:
        for _ in range(SWEEP_SHADOW_PER_CASE):
            params = [rng.choice(FLIP_PARAMS) for _ in range(nparams)]
            rows = sol3_flip(*params) if nparams == 2 else split6_flip(*params)
            key = ",".join(fmt(p) for p in params)
            ops.append(shadow_case(lib, table, case, split, rows, key))
    torus = torus_ops(lib, rng)
    if tiny:
        ops, torus = rng.sample(ops, 20), rng.sample(torus, 5)
    ops += torus
    rng.shuffle(ops)
    return ops


TORUS_SHEARS = 12
TORUS_RANDOM_PER_DIM = 40
TORUS_POOL = 4          # candidates drawn per random map kept
TORUS_MAX_DET = 40
# entry range of the random maps per dimension; the bounding box, and so the
# cost, grows with it, and n = 4 with entries up to 2 would swamp the shears
TORUS_ENTRY_BOUND = {2: 2, 3: 2, 4: 1}


def torus_case(lib, rows, label):
    torus_oracle = lib.torus_oracle
    torus_map = torus_oracle.TorusMap(matrix=tuple(tuple(r) for r in rows))
    n = len(rows)
    b = [[rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    det_b = det(b)
    expected_l = det(i_minus(rows))

    def call():
        return torus_oracle.cross_check_with_ce(torus_map)

    def check(triple):
        report, ce_lefschetz, agree = triple
        expect(agree, f"{label}: cochain side disagrees with the oracle")
        expect(ce_lefschetz == expected_l,
               f"{label}: cochain lefschetz {ce_lefschetz} != {expected_l}")
        expect(report.lefschetz == expected_l,
               f"{label}: oracle lefschetz {report.lefschetz} != {expected_l}")
        expect(report.count == abs(det_b) == len(report.points),
               f"{label}: {len(report.points)} points, count {report.count}, "
               f"|det(A-I)| {abs(det_b)}")
        expect(len(set(report.points)) == len(report.points),
               f"{label}: repeated fixed points")
        for x in report.points:
            expect(len(x) == n and all(0 <= c < 1 for c in x),
                   f"{label}: point {x} outside [0,1)^n")
            expect(all(sum(b[i][j] * x[j] for j in range(n)).denominator == 1
                       for i in range(n)),
                   f"{label}: (A-I)x not integral at {x}")
    return Op(label, call, check)


def torus_ops(lib, rng):
    ops = []
    # shears [[2,k,k],[0,2,k],[0,0,2]]: one fixed point, but a bounding box of
    # about 4k^2 candidates.  k is stratified, with a small seeded offset,
    # because the largest shear sets report_ms.tail.
    for i in range(TORUS_SHEARS):
        k = 10 + 4 * i + rng.randrange(2)
        ops.append(torus_case(lib, [[2, k, k], [0, 2, k], [0, 0, 2]],
                              f"shear k={k}"))
    # random maps: a pool of TORUS_POOL times as many as are kept, sorted by
    # the size of the box count_fixed_points enumerates, and every
    # TORUS_POOL-th kept.  The kept maps then spread over the cost range the
    # same way for every seed; many of them cost about a median sweep report,
    # so a plain draw moved report_ms.p50 from seed to seed.
    for n in (2, 3, 4):
        pool = [random_torus_map(rng, n)
                for _ in range(TORUS_POOL * TORUS_RANDOM_PER_DIM)]
        pool.sort(key=box_size)
        for rows in pool[::TORUS_POOL]:
            ops.append(torus_case(lib, rows, "random " + ";".join(
                ",".join(str(x) for x in r) for r in rows)))
    return ops


def random_torus_map(rng, n):
    bound = TORUS_ENTRY_BOUND[n]
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        d = det([[rows[i][j] - (i == j) for j in range(n)] for i in range(n)])
        if d != 0 and abs(d) <= TORUS_MAX_DET:
            return rows


def box_size(rows):
    """Candidates count_fixed_points enumerates for the map `rows`: the
    product over the rows of A - I of (sum of |entries| + 1)."""
    size = 1
    for i, row in enumerate(rows):
        size *= sum(abs(x - (i == j)) for j, x in enumerate(row)) + 1
    return size


# ---------------------------------------------------------------------------
# command-line documents
# ---------------------------------------------------------------------------

def cli_doc_space():
    """Every document the CLI round can draw, as key -> spec tuple."""
    space = {}
    for name in CLI_LEFSCHETZ_ENTRIES:
        for t in T_SWEEP:
            space[f"lefschetz/{name}/t={fmt(t)}"] = ("lefschetz", name, t)
    for a in FLIP_PARAMS:
        for b in FLIP_PARAMS:
            space[f"shadow/sol3/{fmt(a)},{fmt(b)}"] = ("shadow", a, b)
    for text in CLI_TORUS_MATRICES:
        space[f"torus/{text}"] = ("torus", text)
    return space


def write_cli_doc(lib, key, spec, directory):
    """Write the task document for `key` and return the argv tail."""
    kind = spec[0]
    if kind == "torus":
        return ["torus", f"--matrix={spec[1]}", "--json"]
    if kind == "lefschetz":
        _, name, t = spec
        grading = lib.catalog.get(name).grading
        n = len(grading)
        matrix = [[fmt(t ** grading[i]) if i == j else "0" for j in range(n)]
                  for i in range(n)]
        doc = {"algebra": name, "map": {"matrix": matrix}}
    else:
        _, a, b = spec
        doc = {"algebra": "sol3",
               "map": {"matrix": [[fmt(x) for x in row]
                                  for row in sol3_flip(a, b)]}}
    path = os.path.join(directory, hashlib.sha256(key.encode()).hexdigest()[:16]
                        + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return [kind, path, "--json"]


def build_cli_docs(lib, seed, ref, directory, tiny=False):
    """A seeded round of 12 --json documents: a lefschetz map for each of
    CLI_LEFSCHETZ_ENTRIES, four sol3 shadow maps, and two 2x2 and two 3x3
    torus maps.  Fixing the mix keeps the cost of a round alike across seeds."""
    rng = random.Random(seed)
    space = cli_doc_space()
    keys = sorted(space)
    lefschetz = [[f"lefschetz/{name}/t={fmt(t)}" for t in T_CLI]
                 for name in CLI_LEFSCHETZ_ENTRIES]
    shadow = [[k for k in keys if k.startswith("shadow/")]] * 4
    torus = [[k for k in keys if k.startswith("torus/") and k.count(";") == d]
             for d in (1, 1, 2, 2)]
    chosen = [rng.choice(group) for triple in zip(lefschetz, shadow, torus)
              for group in triple]
    if tiny:
        chosen = chosen[:3]
    table = ref["cli"]
    return [CliDoc(key, write_cli_doc(lib, key, space[key], directory),
                   table[key]) for key in chosen]

"""Acceptance gate: ten exact checks, one printed verdict line each.

Every equality is over Fraction (zero tolerance).  Each test prints
`acceptance N <label>: PASS (...)` on success or a FAIL line before
re-raising, so the gate reads as a checklist under `pytest -s`.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import wraps

from lietrace.catalog import (get, random_graded_endomorphism,
                              sample_endomorphisms)
from lietrace.cecomplex import (betti_numbers, build_complex, cohomology,
                                induced_chain_map, induced_cohomology_map)
from lietrace.lefschetz import (alternating_sum, linearization,
                                twisted_lefschetz)
from lietrace.liealg import check_morphism, endomorphism, validate
from lietrace.ratlin import (Matrix, determinant, exterior_power, inverse,
                             jordan_chevalley, minimal_polynomial)
from lietrace.repn import (Intertwiner, adjoint_module, identity_intertwiner,
                           trivial_module, validate_intertwiner, validate_rep)
from lietrace.nilshadow import (SplitPresentation, build_shadow,
                                shadow_report)
from lietrace.torus_oracle import (DegenerateMap, TorusMap,
                                   cross_check_with_ce)

from helpers import (ALL_NAMES, NILPOTENT_NAMES, is_nilpotent_matrix,
                     is_squarefree, random_matrix, random_modules)


def _criterion(number, label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"acceptance {number:2d} {label}: FAIL ({exc})")
                raise
            print(f"acceptance {number:2d} {label}: PASS ({detail})")
        return wrapper
    return deco


def _trivial_xi(f, algebra, scale=Fraction(1)):
    return Intertwiner(morphism=f, module=trivial_module(algebra),
                       matrix=[[scale]])


@_criterion(1, "linearization L = det(I - f)")
def test_linearization_on_nilpotent_catalog():
    cases = 0
    for name in NILPOTENT_NAMES:
        entry = get(name)
        module = trivial_module(entry.algebra)
        morphisms = list(sample_endomorphisms(entry))
        morphisms += [random_graded_endomorphism(entry, seed)
                      for seed in range(100)]
        for f in morphisms:
            report = twisted_lefschetz(entry.algebra, module, f,
                                       identity_intertwiner(f, module))
            assert report.lefschetz == linearization(f.matrix), (name, f.matrix)
            assert report.agree
            cases += 1
    assert cases >= 7 * 100
    return f"{cases} maps over {len(NILPOTENT_NAMES)} algebras"


@_criterion(2, "Hopf trace identity on the test matrix")
def test_hopf_trace_identity_everywhere():
    cases = 0

    def run(cx, coh, f, xi):
        nonlocal cases
        check_morphism(f)
        validate_intertwiner(xi)
        chain_map = induced_chain_map(cx, f, xi)
        maps = induced_cohomology_map(coh, chain_map)
        assert (alternating_sum(b.trace() for b in chain_map.blocks)
                == alternating_sum(m.trace() for m in maps))
        cases += 1

    scalars = (Fraction(1), Fraction(2), Fraction(-1, 2))
    for name in NILPOTENT_NAMES:
        entry = get(name)
        validate(entry.algebra)
        triv = trivial_module(entry.algebra)
        validate_rep(triv)
        cx_triv = build_complex(entry.algebra, triv)
        coh_triv = cohomology(cx_triv)
        use_adjoint = entry.algebra.dim <= 4
        if use_adjoint:
            adj = adjoint_module(entry.algebra)
            validate_rep(adj)
            cx_adj = build_complex(entry.algebra, adj)
            coh_adj = cohomology(cx_adj)
        for seed in range(25):
            f = random_graded_endomorphism(entry, seed)
            for c in scalars:
                run(cx_triv, coh_triv, f,
                    Intertwiner(morphism=f, module=triv, matrix=[[c]]))
            if use_adjoint:
                run(cx_adj, coh_adj, f,
                    Intertwiner(morphism=f, module=adj,
                                matrix=inverse(f.matrix)))

    sol = get("sol3")
    triv = trivial_module(sol.algebra)
    cx = build_complex(sol.algebra, triv)
    coh = cohomology(cx)
    for f in sample_endomorphisms(sol):
        for c in scalars:
            run(cx, coh, f, Intertwiner(morphism=f, module=triv,
                                        matrix=[[c]]))

    assert cases >= 500
    return f"{cases} validated (algebra, module, f, xi) cases"


@_criterion(3, "characteristic identity sum_p (-1)^p tr Lambda^p M = det(I - M)")
def test_characteristic_identity_random():
    rng = random.Random(211)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        total = sum(((-1) ** p * exterior_power(m, p).trace()
                     for p in range(n + 1)), Fraction(0))
        assert total == determinant(Matrix.identity(n) - m)
    return "200 random rational matrices, n <= 6"


@_criterion(4, "complex soundness d.d = 0")
def test_differential_squares_to_zero():
    built = 0
    for name in ALL_NAMES:
        algebra = get(name).algebra
        for module in (trivial_module(algebra), adjoint_module(algebra)):
            cx = build_complex(algebra, module)   # verifies d.d = 0
            for p in range(cx.top_degree - 1):
                prod = cx.differentials[p + 1] * cx.differentials[p]
                assert prod == Matrix.zero(prod.rows, prod.cols)
            built += 1
    randoms = random_modules(seed=223, count=50)
    for module in randoms:
        build_complex(module.algebra, module)
        built += 1
    return f"{built} complexes ({len(randoms)} random modules)"


@_criterion(5, "Betti regression")
def test_betti_regression():
    # abelian_n: d = 0 in every degree, so betti = dims = C(n, p)
    binomials = {1: (1, 1), 2: (1, 2, 1), 3: (1, 3, 3, 1), 4: (1, 4, 6, 4, 1)}
    for n, expected in binomials.items():
        algebra = get(f"abelian_{n}").algebra
        cx = build_complex(algebra, trivial_module(algebra))
        assert all(d == Matrix.zero(d.rows, d.cols)
                   for d in cx.differentials)
        assert betti_numbers(cx) == expected

    # heisenberg3, by hand: d1 sends e2* to -e0^e1 and kills e0*, e1*,
    # so rank d1 = 1; d2 = 0 because every product with the image vanishes.
    # b0 = 1, b1 = dim ker d1 = 2, b2 = 3 - rank d1 = 2, b3 = 1.
    heis = get("heisenberg3").algebra
    assert betti_numbers(build_complex(heis, trivial_module(heis))) == (1, 2, 2, 1)

    # sol3, by hand: d1 has independent columns -e0^e1 and +e0^e2 (rank 2),
    # so b1 = 3 - 2 = 1; in degree two d(e1*^e2*) = -e012 + e012 = 0, hence
    # d2 = 0, b2 = 3 - 2 = 1; b0 = b3 = 1.
    sol = get("sol3").algebra
    assert betti_numbers(build_complex(sol, trivial_module(sol))) == (1, 1, 1, 1)
    return "abelian_1..4, heisenberg3, sol3 against hand computations"


@_criterion(6, "torus fixed-point oracle")
def test_torus_oracle_random():
    rng = random.Random(227)
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(n))
        try:
            report, cochain_value, verdict = cross_check_with_ce(TorusMap(rows))
        except DegenerateMap:
            continue
        b = [[rows[i][j] - (1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        det_b = determinant(Matrix(b))
        assert report.count == abs(det_b)           # enumeration == |det(A-I)|
        assert Fraction(report.lefschetz) == cochain_value  # CE == det(I-A)
        assert verdict
        done += 1
    return "100 non-degenerate integer maps, n in {2,3}"


@_criterion(7, "nilshadow determinant transport")
def test_nilshadow_transport():
    from lietrace.liealg import LieAlgebra

    sol = get("sol3")
    sol_split = SplitPresentation(algebra=sol.algebra, nil_ideal=(1, 2),
                                  complement=(0,))
    shadow = build_shadow(sol_split)
    assert shadow.shadow.dim == 3 and shadow.shadow.brackets == {}

    for name in NILPOTENT_NAMES:
        algebra = get(name).algebra
        passthrough = build_shadow(SplitPresentation(
            algebra=algebra, nil_ideal=tuple(range(algebra.dim)),
            complement=()))
        assert passthrough.shadow.brackets == algebra.brackets

    mixed = LieAlgebra(dim=4, brackets={(0, 1): {2: 1}, (0, 3): {0: -1},
                                        (1, 3): {1: -1}, (2, 3): {2: -2}})
    jordan = LieAlgebra(dim=3, brackets={(0, 2): {0: -1},
                                         (1, 2): {0: -1, 1: -1}})
    matrix = [
        (shadow, Matrix.diagonal([1, 2, 3])),
        (shadow, Matrix([[1, 0, 0], [5, 2, 0], [-1, 0, 3]])),
        (shadow, Matrix([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])),
        (shadow, Matrix([[-1, 0, 0], [0, 0, 2], [0, 1, 0]])),
        (build_shadow(SplitPresentation(algebra=mixed, nil_ideal=(0, 1, 2),
                                        complement=(3,))),
         Matrix.diagonal([2, 3, 6, -1])),
        (build_shadow(SplitPresentation(algebra=jordan, nil_ideal=(0, 1),
                                        complement=(2,))),
         Matrix.diagonal([6, 2, 3])),
        (build_shadow(SplitPresentation(algebra=jordan, nil_ideal=(0, 1),
                                        complement=(2,))),
         Matrix.diagonal([2, 2, 3])),
    ]
    accepted = 0
    for result, t_matrix in matrix:
        t = endomorphism(result.split.algebra, t_matrix)
        _, report, run = shadow_report(result.split, t)
        assert report.det_input == linearization(t_matrix)
        if run is None:
            assert not report.is_shadow_morphism
            continue
        assert run.lefschetz == linearization(t_matrix)
        accepted += 1
    assert accepted >= 6
    return f"{accepted} accepted transports + passthrough + abelian shadow"


@_criterion(8, "Jordan-Chevalley invariants")
def test_jordan_chevalley_random():
    rng = random.Random(229)
    for case in range(100):
        n = rng.randint(1, 5)
        if case % 2 == 0:
            m = random_matrix(rng, n)
        else:
            # guaranteed non-semisimple input: conjugated repeated-eigenvalue
            # diagonal plus a strictly upper triangular part
            eigs = sorted(rng.choice([-2, -1, 0, 1, 2]) for _ in range(n))
            rows = [[Fraction(eigs[i]) if i == j
                     else Fraction(rng.randint(0, 2)) if (j > i and eigs[i] == eigs[j])
                     else Fraction(0)
                     for j in range(n)] for i in range(n)]
            p = Matrix.identity(n)
            while determinant(p) == 0:
                p = random_matrix(rng, n, num=2, den=1)
            m = p * Matrix(rows) * inverse(p)
        parts = jordan_chevalley(m)
        assert parts.semisimple + parts.nilpotent == m
        assert parts.semisimple * parts.nilpotent == \
            parts.nilpotent * parts.semisimple
        assert is_nilpotent_matrix(parts.nilpotent)
        assert is_squarefree(minimal_polynomial(parts.semisimple))
    return "100 random matrices, n <= 5, all four invariants"


@_criterion(9, "Euler characteristic vanishes")
def test_euler_characteristic_zero():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        cx = build_complex(algebra, trivial_module(algebra))
        assert sum((-1) ** p * b
                   for p, b in enumerate(betti_numbers(cx))) == 0
    return f"{len(ALL_NAMES)} catalog algebras, trivial coefficients"


@_criterion(10, "deterministic CLI output")
def test_lefschetz_json_is_byte_identical(tmp_path):
    doc = {"algebra": "heisenberg3",
           "map": {"matrix": [["2", "0", "0"], ["0", "3", "0"],
                              ["0", "0", "6"]]},
           }
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "lietrace.cli", "lefschetz", str(path),
           "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
    return "two lefschetz --json runs byte-identical"

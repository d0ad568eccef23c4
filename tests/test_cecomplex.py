"""Cochain complex construction, cohomology, and induced maps."""

import random
from fractions import Fraction

import pytest

from lietrace import cecomplex, ratlin
from lietrace.catalog import get, random_graded_endomorphism, sample_endomorphisms
from lietrace.cecomplex import (ChainMap, InternalConsistencyFailure,
                                betti_numbers, build_complex, cohomology,
                                induced_chain_map, induced_cohomology_map)
from lietrace.liealg import LieAlgebra, LieMorphism, endomorphism
from lietrace.lefschetz import coefficient_system
from lietrace.ratlin import (InvalidInput, Matrix, determinant, inverse,
                             quotient_basis)
from lietrace.repn import (Intertwiner, Representation, adjoint_module,
                           identity_intertwiner, trivial_module,
                           validate_intertwiner)

from generated import generated_cases
from helpers import (ALL_NAMES, greedy_complete, heisenberg_defining_module,
                     random_intertwiner, random_invertible, random_modules,
                     reference_differential, solve_in_span, zero_vec)

HEIS3 = get("heisenberg3").algebra
SOL3 = get("sol3").algebra


def _column(m: Matrix, j: int) -> tuple:
    return tuple(m[i, j] for i in range(m.rows))


def test_differential_signs_frozen():
    # trivial coefficients: (d w)(x, y) = -w([x, y])
    cx = build_complex(HEIS3, trivial_module(HEIS3))
    assert cx.dims == (1, 3, 3, 1)
    assert cx.differentials[0] == Matrix.zero(3, 1)
    # [e0,e1] = e2, so d e2* = -e0^e1 and e0*, e1* are closed; 2-subsets are
    # ordered (0,1), (0,2), (1,2)
    assert _column(cx.differentials[1], 0) == zero_vec(3)
    assert _column(cx.differentials[1], 1) == zero_vec(3)
    assert _column(cx.differentials[1], 2) == (Fraction(-1), Fraction(0), Fraction(0))
    assert cx.differentials[2] == Matrix.zero(1, 3)

    # sol3: [e0,e1] = e1, [e0,e2] = -e2 gives d e1* = -e0^e1, d e2* = +e0^e2
    cs = build_complex(SOL3, trivial_module(SOL3))
    assert _column(cs.differentials[1], 1) == (Fraction(-1), Fraction(0), Fraction(0))
    assert _column(cs.differentials[1], 2) == (Fraction(0), Fraction(1), Fraction(0))

    # filiform4: d e2* = -e0^e1, d e3* = -e0^e2 propagate into degree two as
    # d(e1*^e3*) = -e0*^e1*^e2* and d(e2*^e3*) = -e0*^e1*^e3*
    cf = build_complex(get("filiform4").algebra, trivial_module(get("filiform4").algebra))
    d2 = cf.differentials[2]
    # 2-subsets in order: 01, 02, 03, 12, 13, 23; 3-subsets: 012, 013, 023, 123
    for j in range(4):
        assert _column(d2, j) == zero_vec(4)
    assert _column(d2, 4) == (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))
    assert _column(d2, 5) == (Fraction(0), Fraction(-1), Fraction(0), Fraction(0))


def test_d_squared_zero_all_catalog_modules():
    # build_complex verifies d.d = 0 internally; re-check the products here
    modules = {name: [trivial_module(get(name).algebra),
                      adjoint_module(get(name).algebra)]
               for name in ALL_NAMES}
    modules["heisenberg3"].append(heisenberg_defining_module(HEIS3))
    for name, mods in modules.items():
        for module in mods:
            cx = build_complex(get(name).algebra, module)
            for p in range(cx.top_degree - 1):
                prod = cx.differentials[p + 1] * cx.differentials[p]
                assert prod == Matrix.zero(prod.rows, prod.cols)


def test_d_squared_zero_random_modules():
    for module in random_modules(seed=101, count=8):
        build_complex(module.algebra, module)


def test_differentials_match_the_formula():
    # every d_p against reference_differential, which evaluates the
    # docstring formula on basis cochains with no subset tables: the
    # catalog with trivial and adjoint coefficients, random dense modules
    # and every seventh generated case
    cases = [(get(name).algebra, make(get(name).algebra))
             for name in ALL_NAMES for make in (trivial_module, adjoint_module)]
    cases += [(module.algebra, module)
              for module in random_modules(seed=211, count=6)]
    cases += [(a, m) for _, a, m, *_ in generated_cases()[::7]]
    for algebra, module in cases:
        expected = tuple(reference_differential(algebra, module, p)
                         for p in range(algebra.dim))
        assert build_complex(algebra, module).differentials == expected, \
            (algebra, module.dim)


def test_module_algebra_mismatch():
    with pytest.raises(InvalidInput) as err:
        build_complex(HEIS3, trivial_module(SOL3))
    assert (err.type, str(err.value)) == \
        (InvalidInput, "module is not over the given algebra")


def test_betti_numbers_frozen():
    expected = {
        "abelian_1": (1, 1),
        "abelian_2": (1, 2, 1),
        "abelian_3": (1, 3, 3, 1),
        "abelian_4": (1, 4, 6, 4, 1),
        "heisenberg3": (1, 2, 2, 1),
        "heisenberg5": (1, 4, 5, 5, 4, 1),
        "filiform4": (1, 2, 2, 2, 1),
        "sol3": (1, 1, 1, 1),
    }
    for name, betti in expected.items():
        algebra = get(name).algebra
        cx = build_complex(algebra, trivial_module(algebra))
        assert betti_numbers(cx) == betti, name


def test_betti_of_adjoint_coefficients_frozen():
    # ends are forced: H^0 = centralizer of the algebra in the module (the
    # center, dim 1) and H^3 = coinvariants (abelianization, dim 2)
    cx = build_complex(HEIS3, adjoint_module(HEIS3))
    assert cx.dims == (3, 9, 9, 3)
    assert betti_numbers(cx) == (1, 4, 5, 2)


def test_euler_characteristic_vanishes():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        for module in (trivial_module(algebra), adjoint_module(algebra)):
            cx = build_complex(algebra, module)
            assert sum((-1) ** p * d for p, d in enumerate(cx.dims)) == 0
            assert sum((-1) ** p * b
                       for p, b in enumerate(betti_numbers(cx))) == 0


def test_cohomology_bases_are_cocycles_and_independent():
    for name in ("heisenberg3", "sol3", "filiform4"):
        algebra = get(name).algebra
        cx = build_complex(algebra, adjoint_module(algebra))
        for p, data in enumerate(cohomology(cx)):
            for rep in data.representative_basis.entries:
                if p < cx.top_degree:
                    assert cx.differentials[p].apply(rep) == zero_vec(
                        cx.dims[p + 1])
            stacked = list(data.representative_basis.entries) + list(
                data.coboundary_basis.entries)
            if stacked:
                m = Matrix(stacked).transpose()
                from lietrace.ratlin import rref
                assert rref(m)[2] == len(stacked)
            assert data.representative_basis.rows == data.betti


def test_chain_map_blocks_frozen():
    cx = build_complex(HEIS3, trivial_module(HEIS3))
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    cm = induced_chain_map(cx, f, identity_intertwiner(f, trivial_module(HEIS3)))
    assert cm.blocks[0] == Matrix([[1]])
    assert cm.blocks[1] == Matrix.diagonal([2, 3, 6])
    assert cm.blocks[2] == Matrix.diagonal([6, 12, 18])
    assert cm.blocks[3] == Matrix([[36]])

    # the top block of a rank-two torus map is its determinant
    a2 = get("abelian_2").algebra
    cx2 = build_complex(a2, trivial_module(a2))
    g = endomorphism(a2, Matrix([[2, 1], [1, 1]]))
    cm2 = induced_chain_map(cx2, g, identity_intertwiner(g, trivial_module(a2)))
    assert cm2.blocks[2] == Matrix([[1]])


def test_identity_map_induces_identity_everywhere():
    module = adjoint_module(HEIS3)
    cx = build_complex(HEIS3, module)
    ident = endomorphism(HEIS3, Matrix.identity(3))
    cm = induced_chain_map(cx, ident, identity_intertwiner(ident, module))
    for p, block in enumerate(cm.blocks):
        assert block == Matrix.identity(cx.dims[p])
    for p, m in enumerate(induced_cohomology_map(cohomology(cx), cm)):
        assert m == Matrix.identity(m.rows)


def test_chain_map_violation_frozen(monkeypatch):
    # using f itself instead of its inverse as the coefficient map breaks
    # commutation with d already at degree zero, on the diagonal path
    # (diag(2, 3, 6)) and on the Kronecker path (diag(2, 3, 6) exp(ad e0));
    # each path must raise the one message
    module = adjoint_module(HEIS3)
    cx = build_complex(HEIS3, module)
    twisted = Matrix.diagonal([2, 3, 6]) * (Matrix.identity(3)
                                            + HEIS3.basis_ads[0])
    assert any(len(row) > 1 for row in twisted.sparse)
    powers = []
    monkeypatch.setattr(cecomplex, "exterior_powers",
                        lambda m: powers.append(m) or ratlin.exterior_powers(m))
    for matrix, kronecker in ((Matrix.diagonal([2, 3, 6]), 0), (twisted, 1)):
        f = endomorphism(HEIS3, matrix)
        bad = Intertwiner(morphism=f, module=module, matrix=f.matrix)
        with pytest.raises(InternalConsistencyFailure) as err:
            induced_chain_map(cx, f, bad)
        assert str(err.value) == \
            "induced map does not commute with d at degree 0"
        good = Intertwiner(morphism=f, module=module, matrix=inverse(f.matrix))
        validate_intertwiner(good)
        induced_chain_map(cx, f, good)
        assert len(powers) == 2 * kronecker
        powers.clear()


def test_cochain_trace_certificate_fires_in_the_chain_map(monkeypatch):
    # the diagonal route certifies its own blocks: a _weights that drops a
    # scalar xi = [2] builds the blocks of Lambda^p(f^T) alone, which
    # commute with d, and a direct call raises before any report reads
    # them, naming the first degree whose trace is not e_p(f) tr xi
    def scalar_dropped(lam, mu, n, real=cecomplex._weights):
        return real(lam, [1] if len(mu) == 1 else mu, n)
    monkeypatch.setattr(cecomplex, "_weights", scalar_dropped)
    module = trivial_module(HEIS3)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    xi = Intertwiner(morphism=f, module=module, matrix=Matrix([[2]]))
    with pytest.raises(InternalConsistencyFailure) as err:
        induced_chain_map(build_complex(HEIS3, module), f, xi)
    assert str(err.value) == \
        "cochain trace 1 at degree 0 != e_0(f) tr xi = 2"


def test_chain_map_traces_are_kept_outside_its_value():
    # traces[p] = tr F_p on both routes, read once and kept, and not part
    # of ==, hash or repr
    module = adjoint_module(HEIS3)
    cx = build_complex(HEIS3, module)
    twisted = Matrix.diagonal([2, 3, 6]) * (Matrix.identity(3)
                                            + HEIS3.basis_ads[0])
    for matrix in (Matrix.diagonal([2, 3, 6]), twisted):
        f = endomorphism(HEIS3, matrix)
        xi = Intertwiner(morphism=f, module=module, matrix=inverse(matrix))
        cm = induced_chain_map(cx, f, xi)
        fresh = ChainMap(complex=cx, blocks=cm.blocks)
        assert cm.traces is cm.traces
        assert cm.traces == tuple(b.trace() for b in cm.blocks)
        assert (cm, hash(cm), repr(cm)) == (fresh, hash(fresh), repr(fresh))
        assert "traces" not in repr(cm)


_ENTRIES = [Fraction(x) for x in (0, 1, -1, 2, -3)] + [Fraction(1, 2),
                                                     Fraction(-2, 3)]


def _kronecker_oracle(cx, f, xi):
    """The blocks Lambda^p(f^T) (x) xi and the first degree at which
    vanishes refuses F_(p+1) d_p = d_p F_p on them, or None."""
    blocks = tuple(ratlin.kron(power, xi.matrix)
                   for power in ratlin.exterior_powers(f.matrix.transpose()))
    for p, d in enumerate(cx.differentials):
        if not ratlin.vanishes([(1, blocks[p + 1], d), (-1, d, blocks[p])]):
            return blocks, p
    return blocks, None


def _diagonal_cases():
    """(module, f, xi) with f and xi diagonal.  On each catalog algebra:
    graded maps diag(t^w) (sol3: diag(1, a, b)) with a scalar xi on the
    trivial module, xi = f^-1 (f invertible) and the wrong xi = f on the
    adjoint module, and a diagonal f that need not be a morphism with a
    random diagonal xi on both modules; then the trivial and adjoint cases
    of tests/generated.py, with xi = f besides f^-1 on the adjoint ones.
    Entries are drawn from _ENTRIES: zero, negative and fractional."""
    rng = random.Random(30)
    out = []
    for name in ALL_NAMES:
        entry = get(name)
        algebra, n = entry.algebra, entry.algebra.dim
        trivial, adjoint = trivial_module(algebra), adjoint_module(algebra)
        for _ in range(3):
            t = rng.choice(_ENTRIES)
            graded = ([t ** w for w in entry.grading] if entry.grading
                      else [1] + [rng.choice(_ENTRIES) for _ in range(n - 1)])
            f = endomorphism(algebra, Matrix.diagonal(graded))
            out.append((trivial, f, Matrix([[rng.choice(_ENTRIES)]])))
            if all(graded):
                out.append((adjoint, f, inverse(f.matrix)))
            out.append((adjoint, f, f.matrix))
            g = endomorphism(algebra, Matrix.diagonal(
                [rng.choice(_ENTRIES) for _ in range(n)]))
            out.append((trivial, g, Matrix([[rng.choice(_ENTRIES)]])))
            out.append((adjoint, g, Matrix.diagonal(
                [rng.choice(_ENTRIES) for _ in range(n)])))
    for _, _, module, f, xi, kind in generated_cases()[:60]:
        if kind != "random":
            out.append((module, f, xi.matrix))
        if kind == "adjoint":
            out.append((module, f, f.matrix))
    return [(module, f, Intertwiner(morphism=f, module=module, matrix=xi))
            for module, f, xi in out]


def test_diagonal_chain_maps_match_the_kronecker_oracle(monkeypatch):
    # Diagonal f and xi never reach exterior_powers or kron: their blocks
    # are built from the weights, equal (==, so the same stored form) to
    # Lambda^p(f^T) (x) xi, and the weight check on the supports of d
    # gives the verdict and the degree of vanishes on those blocks.  The
    # blocks are also read off a complex with d = 0 (the abelian algebra
    # and a module acting by 0), where every map commutes.
    def refused(*args):
        raise AssertionError("a diagonal map took the Kronecker path")
    monkeypatch.setattr(cecomplex, "exterior_powers", refused)
    monkeypatch.setattr(cecomplex, "kron", refused)
    complexes, verdicts = {}, []
    for module, f, xi in _diagonal_cases():
        n, m = module.algebra.dim, module.dim
        flat = LieAlgebra(dim=n)
        flat_module = Representation(algebra=flat, dim=m,
                                     actions=(Matrix.zero(m, m),) * n)
        for key in ((module.algebra, module), (flat, flat_module)):
            if key not in complexes:
                complexes[key] = build_complex(*key)
        cx = complexes[module.algebra, module]
        blocks, degree = _kronecker_oracle(cx, f, xi)
        if degree is None:
            assert induced_chain_map(cx, f, xi).blocks == blocks
        else:
            with pytest.raises(InternalConsistencyFailure) as err:
                induced_chain_map(cx, f, xi)
            assert str(err.value) == \
                f"induced map does not commute with d at degree {degree}"
        flat_f = endomorphism(flat, f.matrix)
        assert induced_chain_map(
            complexes[flat, flat_module], flat_f,
            Intertwiner(morphism=flat_f, module=flat_module,
                        matrix=xi.matrix)).blocks == blocks
        verdicts.append(degree)
    # each condition at degree p + 1 is one at degree p times some
    # lambda_R, so a diagonal map that fails, fails at degree 0 or 1
    assert len(verdicts) > 150
    assert verdicts.count(None) > 50
    assert set(verdicts) == {None, 0, 1}


def test_supports_are_the_nonzeros_of_each_differential():
    # the index lists the diagonal chain-map check reads, kept with the
    # complex on first read and left out of == and repr
    module = heisenberg_defining_module(HEIS3)
    cx = build_complex(HEIS3, module)
    shown = repr(cx)
    for (rows, cols), d in zip(cx.supports, cx.differentials):
        assert list(zip(rows, cols)) == [
            (i, j) for i in range(d.rows) for j in range(d.cols) if d[i, j]]
    assert cx.supports is cx.supports
    assert repr(cx) == shown and "supports" not in shown
    assert cx == build_complex(HEIS3, module)


@pytest.mark.parametrize("source, target", [("abelian_2", "abelian_2"),
                                            ("abelian_2", "heisenberg3"),
                                            ("heisenberg3", "abelian_2")])
def test_chain_map_dimension_guard(source, target):
    # the complex is heisenberg3's: a map of another dimension on either
    # side is refused before any block is built
    source, target = get(source).algebra, get(target).algebra
    f = LieMorphism(source=source, target=target,
                    matrix=Matrix.zero(target.dim, source.dim))
    xi = Intertwiner(morphism=f, module=trivial_module(HEIS3),
                     matrix=Matrix.identity(1))
    with pytest.raises(InvalidInput) as err:
        induced_chain_map(build_complex(HEIS3, trivial_module(HEIS3)), f, xi)
    assert (err.type, str(err.value)) == \
        (InvalidInput, "morphism dimension does not match the complex")


def test_induced_map_on_h1_of_torus_is_transpose():
    a2 = get("abelian_2").algebra
    module = trivial_module(a2)
    cx = build_complex(a2, module)
    coh = cohomology(cx)
    f = endomorphism(a2, Matrix([[2, 1], [1, 1]]))
    cm = induced_chain_map(cx, f, identity_intertwiner(f, module))
    maps = induced_cohomology_map(coh, cm)
    assert maps[0] == Matrix([[1]])
    assert maps[1] == Matrix([[2, 1], [1, 1]]).transpose()
    assert maps[1].trace() == 3
    assert maps[2] == Matrix([[1]])  # det f = 1 on the top power


def test_induced_maps_are_contravariantly_functorial():
    module = trivial_module(HEIS3)
    cx = build_complex(HEIS3, module)
    coh = cohomology(cx)

    def induced(g):
        cm = induced_chain_map(cx, g, identity_intertwiner(g, module))
        return induced_cohomology_map(coh, cm)

    rng = random.Random(107)
    entry = get("heisenberg3")
    shear = endomorphism(HEIS3, Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    for _ in range(4):
        f = random_graded_endomorphism(entry, rng.randrange(10 ** 6))
        for g in (shear, random_graded_endomorphism(entry, rng.randrange(10 ** 6))):
            comp = endomorphism(HEIS3, f.matrix * g.matrix)
            mf, mg, mc = induced(f), induced(g), induced(comp)
            # pullback reverses composition: (f.g)* = g*.f*
            for p in range(4):
                assert mc[p] == mg[p] * mf[p]

    # diag(A, det A) is a morphism for every A in GL_2(Q).  H^0 and H^3 are
    # lines, but on H^1 and H^2 two such maps rarely commute: here in 196 of
    # those 200 degrees, so the test sees the order of the product
    def block(a):
        return endomorphism(HEIS3, Matrix([[a[0, 0], a[0, 1], 0],
                                           [a[1, 0], a[1, 1], 0],
                                           [0, 0, determinant(a)]]))
    rng = random.Random(113)
    noncommuting = 0
    for _ in range(100):
        f, g = (block(random_invertible(rng, 2)) for _ in range(2))
        mf, mg = induced(f), induced(g)
        mc = induced(endomorphism(HEIS3, f.matrix * g.matrix))
        for p in range(4):
            assert mc[p] == mg[p] * mf[p]
            noncommuting += mg[p] * mf[p] != mf[p] * mg[p]
    assert noncommuting == 196


def test_build_is_deterministic():
    first = build_complex(HEIS3, adjoint_module(HEIS3))
    second = build_complex(HEIS3, adjoint_module(HEIS3))
    assert first.differentials == second.differentials
    assert first.dims == second.dims
    c1, c2 = cohomology(first), cohomology(second)
    for a, b in zip(c1, c2):
        assert a.representative_basis == b.representative_basis
        assert a.coboundary_basis == b.coboundary_basis


def test_sample_endomorphisms_induce_chain_maps():
    # every catalog sample endomorphism yields a valid chain map with
    # trivial coefficients (guards the sign conventions globally)
    for name in ALL_NAMES:
        algebra = get(name).algebra
        module = trivial_module(algebra)
        cx = build_complex(algebra, module)
        for f in sample_endomorphisms(get(name)):
            induced_chain_map(cx, f, identity_intertwiner(f, module))


# ---------------------------------------------------------------------------
# one elimination per job agrees with the per-candidate / per-image reference
# ---------------------------------------------------------------------------

def _reference_induced(cohom, chain_map) -> list:
    """Per-representative solve_in_span loop: the reference for the batched
    solve in induced_cohomology_map."""
    out = []
    for p, data in enumerate(cohom):
        reps = list(data.representative_basis.entries)
        if not reps:
            out.append(Matrix([]))
            continue
        cols = []
        for h in reps:
            coeffs = solve_in_span(reps + list(data.coboundary_basis.entries),
                                   chain_map.blocks[p].apply(h))
            cols.append(tuple(coeffs[: len(reps)]))
        out.append(Matrix(cols).transpose())
    return out


def _assert_matches_reference(algebra, module, maps):
    cx = build_complex(algebra, module)
    coh = cohomology(cx)
    for data in coh:
        assert data.representative_basis.entries == tuple(greedy_complete(
            data.coboundary_basis.entries, data.cocycle_basis.entries))
    for f, xi in maps:
        cm = induced_chain_map(cx, f, xi)
        assert induced_cohomology_map(coh, cm) == _reference_induced(coh, cm)


def _graded_adjoint_maps(algebra, weights, ts):
    """diag(t^w) with the adjoint coefficient map xi = f^-1."""
    module = adjoint_module(algebra)
    maps = []
    for t in ts:
        f = endomorphism(algebra, Matrix.diagonal([t ** w for w in weights]))
        maps.append((f, Intertwiner(morphism=f, module=module,
                                    matrix=inverse(f.matrix))))
    return module, maps


def test_trivial_module_matches_reference_on_catalog():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        module = trivial_module(algebra)
        maps = [(f, identity_intertwiner(f, module))
                for f in sample_endomorphisms(get(name))]
        _assert_matches_reference(algebra, module, maps)


def test_adjoint_module_matches_reference_on_graded_maps():
    for name in ALL_NAMES:
        entry = get(name)
        if entry.grading is None or entry.algebra.dim > 5:
            continue
        module, maps = _graded_adjoint_maps(
            entry.algebra, entry.grading, (Fraction(2), Fraction(-1, 2)))
        _assert_matches_reference(entry.algebra, module, maps)


def test_betti_zero_degree_matches_reference():
    # sol3 has no center, so H^0 with adjoint coefficients is 0 and its
    # induced map is the 0 x 0 matrix; xi = f^-1 intertwines for every
    # automorphism f
    module = adjoint_module(SOL3)
    assert betti_numbers(build_complex(SOL3, module)) == (0, 1, 2, 1)
    maps = [(f, Intertwiner(morphism=f, module=module,
                            matrix=inverse(f.matrix)))
            for f in sample_endomorphisms(get("sol3"))
            if not f.matrix.is_zero()]
    assert len(maps) == 4
    _assert_matches_reference(SOL3, module, maps)


@pytest.mark.parametrize("n", [4, 5])
def test_filiform_model_matches_reference(n):
    # [e0, ei] = e(i+1), graded by weights (1, 1, 2, ..., n-1)
    algebra = LieAlgebra(dim=n, brackets={
        (0, i): {i + 1: Fraction(1)} for i in range(1, n - 1)})
    weights = (1,) + tuple(range(1, n))
    module, maps = _graded_adjoint_maps(algebra, weights, (Fraction(-2),))
    _assert_matches_reference(algebra, module, maps)
    trivial = trivial_module(algebra)
    _assert_matches_reference(algebra, trivial, [
        (f, identity_intertwiner(f, trivial)) for f, _ in maps])


def _transposed_formula(data, block) -> Matrix:
    """(R F_p^T C)^T from the public fields of one degree: the images of the
    representatives R as rows, taken to the classes by C, the coordinates
    on them, which R C = I and B C = 0 pin down on the cocycles."""
    coordinates = data.transposed_coordinates.transpose()
    reps = data.representative_basis
    assert reps * coordinates == Matrix.identity(data.betti)
    assert (data.coboundary_basis * coordinates).is_zero()
    return (reps * block.transpose() * coordinates).transpose()


def test_induced_maps_keep_their_orientation():
    # induced_cohomology_map computes coords^T (F_p reps^T) with the
    # transposes built once per coefficient system; it must equal
    # (reps F_p^T coords)^T, the map with the images as rows, on every
    # generated case and on random modules with random intertwiners, so
    # a map transposed on its way out cannot pass as the induced map
    rng = random.Random(137)
    cases = [(a, m, f, xi) for _, a, m, f, xi, _ in generated_cases()]
    for module in random_modules(seed=139, count=6):
        entry = next(get(name) for name in ALL_NAMES
                     if get(name).algebra == module.algebra)
        cases += [(module.algebra, module, f, random_intertwiner(rng, f, module))
                  for f in sample_endomorphisms(entry)]
    asymmetric = 0
    for algebra, module, f, xi in cases:
        system = coefficient_system(algebra, module)
        chain_map = induced_chain_map(system.complex, f, xi)
        maps = induced_cohomology_map(system.cohomology, chain_map)
        assert maps == [_transposed_formula(data, block) for data, block
                        in zip(system.cohomology, chain_map.blocks)]
        asymmetric += any(h != h.transpose() for h in maps)
    assert asymmetric >= 20


def test_cocycle_leaving_block_is_an_internal_failure():
    # e0* is a cocycle of heisenberg3, e2* is not (d e2* = -e0^e1): a degree
    # one block swapping them breaks the chain-map property that
    # induced_chain_map would have checked
    module = trivial_module(HEIS3)
    cx = build_complex(HEIS3, module)
    ident = endomorphism(HEIS3, Matrix.identity(3))
    blocks = list(induced_chain_map(
        cx, ident, identity_intertwiner(ident, module)).blocks)
    blocks[1] = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    bad = ChainMap(complex=cx, blocks=tuple(blocks))
    with pytest.raises(InternalConsistencyFailure, match="degree 1"):
        induced_cohomology_map(cohomology(cx), bad)


@pytest.mark.parametrize("entry, degree", [((3, 0), 1), ((0, 5), 0)])
def test_d_squared_nonzero_is_an_internal_failure(monkeypatch, entry, degree):
    # d o d = 0 is an explicit check.  For heisenberg3 with the adjoint
    # module, one more unit at (3, 0) of d_1 meets row 0 of d_0, which is
    # zero, but column 3 of d_2, which is not: d_2 d_1 != 0.  At (0, 5) it
    # meets row 5 of d_0, which is not zero: d_1 d_0 != 0, found first.
    differential = cecomplex._differential

    def perturbed(algebra, module, p):
        d = differential(algebra, module, p)
        if p != 1:
            return d
        rows = [list(row) for row in d.entries]
        rows[entry[0]][entry[1]] += 1
        return Matrix(rows)
    monkeypatch.setattr(cecomplex, "_differential", perturbed)
    with pytest.raises(InternalConsistencyFailure) as err:
        build_complex(HEIS3, adjoint_module(HEIS3))
    assert str(err.value) == f"d squared nonzero at degree {degree}"


def test_cocycle_leaving_block_at_degree_zero():
    # H^0 of heisenberg3 with the adjoint module is the centre, spanned by
    # e2; a degree zero block swapping e0 and e2 sends it to e0, which
    # d_0 does not kill ([e1, e0] = -e2)
    module = adjoint_module(HEIS3)
    cx = build_complex(HEIS3, module)
    ident = endomorphism(HEIS3, Matrix.identity(3))
    blocks = list(induced_chain_map(
        cx, ident, identity_intertwiner(ident, module)).blocks)
    blocks[0] = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    bad = ChainMap(complex=cx, blocks=tuple(blocks))
    with pytest.raises(InternalConsistencyFailure) as err:
        induced_cohomology_map(cohomology(cx), bad)
    assert str(err.value) == \
        "induced cocycle leaves the cocycle space at degree 0"


def test_representative_count_is_certified(monkeypatch):
    # the representatives = betti certificate is an explicit check, not an
    # assert, so it holds under python -O too: a quotient basis that loses
    # a representative, with the coboundary rank that would explain it,
    # fails at degree 0
    def drop_last(kernel, fixed):
        reps, coordinates, rank = quotient_basis(kernel, fixed)
        return (reps.submatrix(range(reps.rows - 1), range(reps.cols)),
                coordinates, rank + 1)
    monkeypatch.setattr(cecomplex, "quotient_basis", drop_last)
    with pytest.raises(InternalConsistencyFailure,
                       match="0 representatives but betti 1 at degree 0"):
        cohomology(build_complex(HEIS3, trivial_module(HEIS3)))


def test_representatives_are_certified_cocycles(monkeypatch):
    # e0* and e1* span the degree one cocycles of heisenberg3 and e2* is
    # not one (d e2* = -e0^e1): a quotient basis that swaps e2* in for its
    # last representative fails at degree 1, under python -O too
    def swap_in_e2(kernel, fixed):
        reps, coordinates, rank = quotient_basis(kernel, fixed)
        if reps.cols == 3 and reps.rows:
            reps = Matrix(list(reps.entries[:-1]) + [[0, 0, 1]])
        return reps, coordinates, rank
    monkeypatch.setattr(cecomplex, "quotient_basis", swap_in_e2)
    with pytest.raises(InternalConsistencyFailure) as err:
        cohomology(build_complex(HEIS3, trivial_module(HEIS3)))
    assert str(err.value) == "a representative is not a cocycle at degree 1"


def test_negated_class_coordinates_fail_at_degree_zero(monkeypatch):
    # class coordinates that come back negated pass the rank, count and
    # cocycle checks and would negate every induced map on cohomology;
    # coords^T reps^T = -I fails at degree 0
    def negated(kernel, fixed):
        reps, coordinates, rank = quotient_basis(kernel, fixed)
        return reps, -coordinates, rank
    monkeypatch.setattr(cecomplex, "quotient_basis", negated)
    with pytest.raises(InternalConsistencyFailure) as err:
        cohomology(build_complex(HEIS3, trivial_module(HEIS3)))
    assert str(err.value) == \
        "class coordinates do not invert the representatives at degree 0"


def test_public_induced_map_checks_each_cocycle_image(monkeypatch):
    # induced_cohomology_map takes any ChainMap, so it checks d_p X = 0 with
    # one one-term vanishes per degree below n, even where the report skips
    # it; cohomology's certificates run before the counting starts
    module = adjoint_module(HEIS3)
    cx = build_complex(HEIS3, module)
    cohom = cohomology(cx)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    chain_map = induced_chain_map(cx, f, Intertwiner(
        morphism=f, module=module, matrix=inverse(f.matrix)))
    calls = []

    def counting(terms, real=ratlin.vanishes):
        calls.append(len(terms))
        return real(terms)
    monkeypatch.setattr(cecomplex, "vanishes", counting)
    induced_cohomology_map(cohom, chain_map)
    assert calls == [1] * HEIS3.dim


def test_filiform6_adjoint_cohomology_eliminates_once_per_differential(
        monkeypatch):
    # A structural guard in place of a timing test: cohomology and the
    # induced maps of filiform6 with the adjoint module, f = diag(2^w) and
    # xi = f^-1, run one rref per differential and one small rref of the
    # coboundaries per degree, 2n + 1 = 13 in all, over at most 45 000 input
    # cells.  Solving for representatives and induced maps on transposed
    # stacks with dim C^p rows took 20 calls over 84 672 cells.
    n = 6
    algebra = LieAlgebra(dim=n, brackets={(0, i): {i + 1: 1}
                                          for i in range(1, n - 1)})
    module, maps = _graded_adjoint_maps(algebra, (1,) + tuple(range(1, n)),
                                        (Fraction(2),))
    cx = build_complex(algebra, module)
    chain_map = induced_chain_map(cx, *maps[0])
    calls = []
    rref = ratlin.rref

    def counting_rref(m):
        calls.append(m.rows * m.cols)
        return rref(m)

    monkeypatch.setattr(ratlin, "rref", counting_rref)
    induced_cohomology_map(cohomology(cx), chain_map)
    assert len(calls) == 2 * n + 1
    assert sum(calls) <= 45_000

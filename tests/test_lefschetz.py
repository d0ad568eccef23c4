"""The twisted Lefschetz pipeline against independent hand computations."""

import random
from fractions import Fraction

import pytest

from lietrace import cecomplex, lefschetz, liealg, ratlin
from lietrace.catalog import (get, list_entries, random_graded_endomorphism,
                              sample_endomorphisms)
from lietrace.cli import EXIT_INTERNAL, main
from lietrace.lefschetz import (alternating_sum, coefficient_system,
                                linearization, twisted_lefschetz)
from lietrace.liealg import JacobiViolation, LieAlgebra, endomorphism
from lietrace.ratlin import (InternalConsistencyFailure, InvalidInput, Matrix,
                             as_fraction, determinant, inverse)
from lietrace.repn import (Intertwiner, Representation, adjoint_module,
                           identity_intertwiner, trivial_module)

from generated import generated_cases
from helpers import (NILPOTENT_NAMES, random_intertwiner, random_invertible,
                     random_modules, whole)

HEIS3 = get("heisenberg3").algebra
SOL3 = get("sol3").algebra


def _trivial_run(algebra, matrix, scale=Fraction(1)):
    module = trivial_module(algebra)
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    f = endomorphism(algebra, matrix)
    xi = Intertwiner(morphism=f, module=module, matrix=[[scale]])
    return twisted_lefschetz(algebra, module, f, xi)


def test_linearization_helper():
    assert linearization(Matrix.diagonal([2, 3, 6])) == -10
    assert linearization(Matrix.identity(4)) == 0
    assert linearization(Matrix.zero(2, 2)) == 1
    assert alternating_sum(m.trace() for m in [Matrix([[1]]),
                                               Matrix.diagonal([2, 3])]) == -4


def test_alternating_sum_equals_a_fraction_loop():
    def loop(values):
        total = Fraction(0)
        for p, v in enumerate(values):
            total += -v if p % 2 else v
        return total

    rng = random.Random(25)
    cases = [[], [3], [Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)],
             [1, Fraction(2, 3), -4, Fraction(-5, 6), Fraction(7, 10 ** 6)]]
    cases += [[rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-99, 99),
                                                       rng.randint(1, 60))))
               for _ in range(rng.randint(1, 8))] for _ in range(50)]
    for values in cases:
        expected = loop(values)
        for total in (alternating_sum(values),
                      alternating_sum(v for v in values)):
            assert total == expected and type(total) is Fraction, values


def test_heisenberg_diagonal_report_frozen():
    # f = diag(2,3,6): H^1 is spanned by e0*, e1* (scaling 2, 3); H^2 by the
    # classes of e0^e2, e1^e2 (scaling 12, 18); H^3 scales by det = 36.
    # L = 1 - 5 + 30 - 36 = -10 = (1-2)(1-3)(1-6)
    report = _trivial_run(HEIS3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    assert report.betti == (1, 2, 2, 1)
    assert report.dims == (1, 3, 3, 1)
    assert report.cohomology_traces == (1, 5, 30, 36)
    assert report.cochain_traces == (1, 11, 36, 36)
    assert report.lefschetz == -10
    assert report.hopf == -10
    assert report.det_i_minus_a == -10
    assert report.agree
    assert report.note == ""


def test_torus_rank_two_frozen():
    # the cat-like map: L = det(I - f) = det([[-1,-1],[-1,0]]) = -1
    report = _trivial_run(get("abelian_2").algebra, [[2, 1], [1, 1]])
    assert report.lefschetz == -1
    assert report.cohomology_traces == (1, 3, 1)
    assert report.agree


def test_identity_and_zero_maps():
    for name in NILPOTENT_NAMES:
        algebra = get(name).algebra
        n = algebra.dim
        ident = _trivial_run(algebra, Matrix.identity(n))
        assert ident.lefschetz == 0 and ident.agree
        zero = _trivial_run(algebra, [[0] * n for _ in range(n)])
        assert zero.lefschetz == 1 and zero.agree


def test_scaled_intertwiner_disagrees_with_note():
    report = _trivial_run(HEIS3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]],
                          scale=Fraction(2))
    assert report.lefschetz == -20
    assert report.det_i_minus_a == -10
    assert not report.agree
    assert "intertwiner trace" in report.note


def test_solvable_algebra_agrees_untwisted_disagrees_twisted():
    # T swaps the two root directions (scaling one by 2) and flips e0
    t = [[-1, 0, 0], [0, 0, 2], [0, 1, 0]]
    plain = _trivial_run(SOL3, t)
    assert plain.det_i_minus_a == -2
    assert plain.lefschetz == -2 and plain.agree

    twisted = _trivial_run(SOL3, t, scale=Fraction(2))
    assert twisted.lefschetz == -4
    assert not twisted.agree
    assert "not nilpotent" in twisted.note


def test_adjoint_coefficients_with_inverse_intertwiner():
    # tr(f^-1) = 1/2 + 1/3 + 1/6 = 1, so the twisted number still matches
    # det(I - f) = -10
    module = adjoint_module(HEIS3)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    xi = Intertwiner(morphism=f, module=module, matrix=inverse(f.matrix))
    report = twisted_lefschetz(HEIS3, module, f, xi)
    assert xi.matrix.trace() == 1
    assert report.lefschetz == -10
    assert report.agree


def _hopf_values(algebra, module, f):
    """(cochain value, cohomology value, det(I - f) * tr xi)."""
    xi = identity_intertwiner(f, module)
    report = twisted_lefschetz(algebra, module, f, xi)
    return (report.hopf, report.lefschetz,
            linearization(f.matrix) * xi.matrix.trace())


def test_hopf_identity_check_frozen():
    a3 = get("abelian_3").algebra
    zero = endomorphism(a3, Matrix.zero(3, 3))
    assert _hopf_values(a3, trivial_module(a3), zero) == (1, 1, 1)

    ident = endomorphism(HEIS3, Matrix.identity(3))
    # Euler characteristic both ways, times tr(id on the module) = 3... but
    # det(I - I) = 0 kills the third value too
    assert _hopf_values(HEIS3, adjoint_module(HEIS3), ident) == (0, 0, 0)


def test_hopf_fires_through_negated_class_maps(monkeypatch):
    # a fault past every other certificate: the class step of the report
    # returning its maps negated leaves the cohomology, the chain map and
    # the cochain traces as they are, but for f = diag(2, 3, 6) the
    # cohomology side reads 10 while the cochain side stays at -10
    def negated(cohom, images, real=lefschetz._classes):
        return [-m for m in real(cohom, images)]
    monkeypatch.setattr(lefschetz, "_classes", negated)
    with pytest.raises(InternalConsistencyFailure,
                       match="cochain-level alternating trace -10 != "
                             "cohomology-level 10") as err:
        _trivial_run(HEIS3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    assert "Fraction(" not in str(err.value)


def test_cochain_trace_certificate_fires_on_a_dropped_scalar(monkeypatch):
    # a diagonal path that drops a scalar xi = [2] builds the blocks of
    # Lambda^p(f^T) alone: they commute with d and Hopf compares two sides
    # of the same blocks, so only tr F_p = e_p(f) tr xi sees that heisenberg3
    # with f = diag(2, 3, 6) would report hopf -10 where det(I - f) tr xi
    # is -20
    def scalar_dropped(lam, mu, n, real=cecomplex._weights):
        return real(lam, [1] if len(mu) == 1 else mu, n)
    monkeypatch.setattr(cecomplex, "_weights", scalar_dropped)
    with pytest.raises(InternalConsistencyFailure) as err:
        _trivial_run(HEIS3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]], Fraction(2))
    assert str(err.value) == \
        "cochain trace 1 at degree 0 != e_0(f) tr xi = 2"


def _dual(module: Representation) -> Representation:
    """V*, on which e_i acts by -rho(e_i)^T."""
    return Representation(algebra=module.algebra, dim=module.dim, actions=tuple(
        -a.transpose() for a in module.actions))


def test_twisted_poincare_duality():
    # the cup product pairs H^p(g; V) with H^(n-p)(g; V*) into H^n(g) = Q
    # for a nilpotent (so unimodular) g of dim n: b_p(V) = b_(n-p)(V*), and
    # for an automorphism f with intertwiner X on V, X^-T intertwines f on
    # V* and X^-1 intertwines f^-1 on V, with
    # tr H^(n-p)(f; V*, X^-T) = det f tr H^p(f^-1; V, X^-1).  Run over the
    # invertible generated cases and random modules over the nilpotent
    # catalog with their invertible sample maps and random intertwiners.
    cases = [(a, m, f, xi.matrix) for _, a, m, f, xi, _ in generated_cases()]
    rng = random.Random(33)
    for module in random_modules(seed=31, count=8):
        entry = next(get(name) for name in NILPOTENT_NAMES + ["sol3"]
                     if get(name).algebra == module.algebra)
        if entry.name == "sol3":
            continue
        for f in sample_endomorphisms(entry):
            cases.append((module.algebra, module, f,
                          random_intertwiner(rng, f, module).matrix))
    checked = 0
    for algebra, module, f, x in cases:
        if determinant(f.matrix) == 0 or determinant(x) == 0:
            continue
        dual = _dual(module)
        f_inv = endomorphism(algebra, inverse(f.matrix))
        back = twisted_lefschetz(algebra, module, f_inv, Intertwiner(
            morphism=f_inv, module=module, matrix=inverse(x)))
        there = twisted_lefschetz(algebra, dual, f, Intertwiner(
            morphism=f, module=dual, matrix=inverse(x).transpose()))
        assert there.betti == back.betti[::-1], (algebra, module, f)
        assert there.cohomology_traces[::-1] == tuple(
            determinant(f.matrix) * t for t in back.cohomology_traces), \
            (algebra, module, f)
        checked += 1
    assert checked == 238   # 200 generated, 38 on random modules


def test_poincare_duality_fires_on_a_zeroed_differential(monkeypatch,
                                                         tmp_path, capsys):
    # a zero d_1 for filiform4 passes d o d, rank-nullity and the
    # representative certificates, since its kernel and image are those of
    # the zero map, but a nilpotent algebra with the trivial module has
    # symmetric Betti numbers
    differential = cecomplex._differential

    def zeroed(algebra, module, p):
        d = differential(algebra, module, p)
        return Matrix.zero(d.rows, d.cols) if p == 1 else d
    monkeypatch.setattr(cecomplex, "_differential", zeroed)
    path = tmp_path / "filiform4.json"
    path.write_text('{"algebra": "filiform4"}')
    code = main(["cohomology", str(path)])
    assert (code, *capsys.readouterr()) == (
        EXIT_INTERNAL, "",
        "internal consistency failure: Betti numbers [1, 4, 4, 2, 1] of a "
        "nilpotent algebra with the trivial module are not symmetric "
        "(Poincare duality)\n")


def test_conjugation_invariance():
    # conjugating by an automorphism preserves the Lefschetz number
    shear = Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    f = Matrix.diagonal([2, 3, 6])
    conjugated = shear * f * inverse(shear)
    report = _trivial_run(HEIS3, conjugated)
    assert report.lefschetz == -10
    assert report.agree


def test_det_i_minus_a_is_basis_independent():
    rng = random.Random(109)
    for n in (2, 3, 4):
        for _ in range(5):
            a = random_invertible(rng, n)
            p = random_invertible(rng, n)
            assert linearization(p * a * inverse(p)) == linearization(a)


def test_catalog_samples_all_agree_untwisted():
    for name in NILPOTENT_NAMES:
        entry = get(name)
        for f in sample_endomorphisms(entry):
            report = _trivial_run(entry.algebra, f.matrix)
            assert report.agree, (name, f.matrix.entries)
            assert report.lefschetz == linearization(f.matrix)


def test_report_values_are_fractions_over_the_catalog():
    # no int may leak out of the trusted Matrix constructor into a report
    def fractions_only(values):
        return all(type(x) is Fraction for x in values)

    for name in list_entries():
        entry = get(name)
        for f in sample_endomorphisms(entry):
            report = _trivial_run(entry.algebra, f.matrix)
            assert fractions_only(report.cohomology_traces)
            assert fractions_only(report.cochain_traces)
            assert fractions_only([report.lefschetz, report.hopf,
                                   report.det_i_minus_a])
            for m in report.cohomology_maps:
                assert fractions_only(x for row in m.entries for x in row)


def test_graded_scalings_product_formula():
    # for a graded scaling by t the Lefschetz number factors as
    # prod_i (1 - t^{w_i}) over the grading weights
    rng = random.Random(113)
    for name in ("heisenberg3", "heisenberg5", "filiform4"):
        entry = get(name)
        for _ in range(10):
            f = random_graded_endomorphism(entry, rng.randrange(10 ** 6))
            report = _trivial_run(entry.algebra, f.matrix)
            t = f.matrix[0, 0]  # weight-one generator scale
            expected = Fraction(1)
            for w in entry.grading:
                expected *= 1 - t ** w
            assert report.lefschetz == expected


def test_each_trace_is_computed_once(monkeypatch):
    # the Lefschetz and Hopf numbers are alternating sums of the per-degree
    # traces the report already holds, so an agreeing report takes one trace
    # per chain-map block and one per cohomology map
    traces = []
    trace = Matrix.trace

    def counting_trace(m):
        traces.append((m.rows, m.cols))
        return trace(m)

    monkeypatch.setattr(Matrix, "trace", counting_trace)
    report = _trivial_run(HEIS3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    assert report.agree
    assert len(traces) == len(report.cochain_traces) + len(
        report.cohomology_maps) == 8


@pytest.mark.parametrize("twisted", [False, True])
def test_a_warm_report_reads_each_diagonal_once(monkeypatch, twisted):
    # induced_chain_map alone reads the diagonals of f and xi, once each,
    # to choose its route and, for a diagonal map, to certify its traces;
    # the report reads cochain_traces off the chain map, which takes one
    # trace per block
    case = _filiform_adjoint(4, twisted=twisted)
    twisted_lefschetz(*case)
    diagonals, traced, chain_maps = [], [], []

    def counting_diagonal(m, real=cecomplex._diagonal):
        diagonals.append(m)
        return real(m)

    def counting_trace(m, real=Matrix.trace):
        traced.append(m)
        return real(m)

    def kept(*args, real=cecomplex.induced_chain_map):
        chain_maps.append(real(*args))
        return chain_maps[-1]

    monkeypatch.setattr(cecomplex, "_diagonal", counting_diagonal)
    monkeypatch.setattr(Matrix, "trace", counting_trace)
    monkeypatch.setattr(lefschetz, "induced_chain_map", kept)
    report = twisted_lefschetz(*case)
    (chain_map,) = chain_maps
    assert len(diagonals) == 2
    on_blocks = [m for m in traced if any(m is b for b in chain_map.blocks)]
    assert len(on_blocks) == len(chain_map.blocks) == 5
    assert all(m is b for m, b in zip(on_blocks, chain_map.blocks))
    assert report.cochain_traces is chain_map.traces


def test_validate_inputs_guard():
    module = trivial_module(HEIS3)
    bad = endomorphism(HEIS3, Matrix.diagonal([2, 3, 5]))
    xi = identity_intertwiner(bad, module)
    from lietrace.liealg import NotAMorphism
    with pytest.raises(NotAMorphism):
        twisted_lefschetz(HEIS3, module, bad, xi)


def _filiform_adjoint(n: int, t: int = 2, twisted: bool = False):
    """The filiform algebra of dim n, [e0, ei] = e(i+1), with the adjoint
    module, f = diag(t^w) for the weights (1, 1, 2, ..., n-1) and xi = f^-1;
    twisted, f = diag(t^w) exp(ad e1), an automorphism that is not
    diagonal (ad e1 takes e0 to -e2 and squares to 0)."""
    algebra = LieAlgebra(dim=n, brackets={(0, i): {i + 1: 1}
                                          for i in range(1, n - 1)})
    weights = (1,) + tuple(range(1, n))
    matrix = Matrix.diagonal([t ** w for w in weights])
    if twisted:
        matrix = matrix * (Matrix.identity(n) + algebra.basis_ads[1])
    f = endomorphism(algebra, matrix)
    module = adjoint_module(algebra)
    return algebra, module, f, Intertwiner(morphism=f, module=module,
                                           matrix=inverse(f.matrix))


def test_filiform6_adjoint_report_multiplies_integers(monkeypatch):
    # A structural guard in place of a timing test: every matrix of one
    # filiform6 report with the adjoint module is integers over one
    # denominator, so products, kron, exterior powers and elimination run
    # no Fraction arithmetic.  What is left is the alternating sums of the
    # 2 x 7 traces, 14 operator calls; multiplying Fraction entries, as
    # before the integer form, made 2159.  The count is deterministic.
    algebra, module, f, xi = _filiform_adjoint(6)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__"):
        def counting(self, other, real=getattr(Fraction, name), name=name):
            calls.append(name)
            return real(self, other)
        monkeypatch.setattr(Fraction, name, counting)
    report = twisted_lefschetz(algebra, module, f, xi)
    monkeypatch.undo()
    assert report.dims == (6, 36, 90, 120, 90, 36, 6)
    assert report.lefschetz == report.hopf
    assert len(calls) <= 50


def test_warm_filiform6_adjoint_report_transposes_only_the_map(monkeypatch):
    # A structural guard in place of a timing test: the transposes that the
    # induced maps on cohomology need are built with the cohomology, once
    # per coefficient system, so a second filiform6 report with the adjoint
    # module transposes only the 6 x 6 map f, in check_morphism and
    # validate_intertwiner; induced_chain_map builds the blocks of the
    # diagonal f from its weights, with no transpose.  A transpose of an
    # image matrix reps * F_p^T or of a chain-map block would show here.
    case = _filiform_adjoint(6)
    twisted_lefschetz(*case)
    shapes = []

    def recording(m, real=ratlin.Matrix.transpose):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(ratlin.Matrix, "transpose", recording)
    report = twisted_lefschetz(*case)
    assert shapes == [(6, 6)] * 2
    assert report.lefschetz == report.hopf


def test_filiform6_adjoint_report_packs_only_kept_rows(monkeypatch):
    # A structural guard in place of a timing test: every identity of one
    # filiform6 report with the adjoint module (Jacobi, the module, the
    # morphism and the intertwiner, d o d, the representatives and their
    # class coordinates, the chain map) goes through ratlin.vanishes, which
    # packs no row, so only the rows of matrices the report keeps are
    # packed (3065 when each identity built and compared its products).
    # Products skip their empty rows, a left row with one nonzero scales its
    # partner row without packing, and the chain-map blocks of the diagonal
    # f are built from its weights with no exterior power (whose 63 rows
    # were packed), so the cold report packs 397 rows and a second, warm
    # report of the same values 19.  Both counts are deterministic.
    algebra, module, f, xi = _filiform_adjoint(6)
    again = _filiform_adjoint(6)
    calls = []

    def counting(acc, real=ratlin.packed_row):
        calls.append(acc)
        return real(acc)
    for mod in (ratlin, cecomplex, liealg):
        monkeypatch.setattr(mod, "packed_row", counting)
    report = twisted_lefschetz(algebra, module, f, xi)
    cold = len(calls)
    warm = twisted_lefschetz(*again)
    monkeypatch.undo()
    assert report.lefschetz == report.hopf
    assert warm == report
    assert cold <= 397
    assert len(calls) - cold <= 19


@pytest.mark.parametrize("twisted, kronecker", [(False, 0), (True, 1)])
def test_only_a_map_that_is_not_diagonal_builds_exterior_powers(
        monkeypatch, twisted, kronecker):
    # A structural guard in place of a timing test: a warm filiform6
    # adjoint report of diag(2^w) with xi = f^-1 builds its blocks from the
    # weights and checks them on the supports of d, with no exterior power,
    # kron or chain-map vanishes (two terms); diag(2^w) exp(ad e1) takes
    # each of the first two once and the check once per differential.
    # Neither runs a one-term vanishes: the cohomology certifies its
    # representatives once per coefficient system, so the report checks no
    # cocycle image.
    case = _filiform_adjoint(6, twisted=twisted)
    assert any(len(row) > 1 for row in case[2].matrix.sparse) == twisted
    twisted_lefschetz(*case)
    calls = []
    for name in ("exterior_powers", "kron", "vanishes"):
        def counting(*args, real=getattr(cecomplex, name), name=name):
            calls.append(name if name != "vanishes" else len(args[0]))
            return real(*args)
        monkeypatch.setattr(cecomplex, name, counting)
    report = twisted_lefschetz(*case)
    assert report.lefschetz == report.hopf
    assert calls.count("exterior_powers") == kronecker
    assert calls.count("kron") == 7 * kronecker
    assert calls.count(2) == 6 * kronecker
    assert calls.count(1) == 0


def test_filiform6_adjoint_report_stays_sparse(monkeypatch):
    # A structural guard in place of a timing test: one filiform6 report
    # with the adjoint module reads no dense view of a matrix of more than
    # 1000 cells (its differentials and chain-map blocks reach 120 x 120),
    # coerces fewer than 1000 entries, and converts fewer than 5000 cells of
    # dense vectors to or from sparse rows: its cohomology bases stay sparse
    # from rref to the induced maps.  All three counts are deterministic.
    algebra, module, f, xi = _filiform_adjoint(6)
    dense_views, coerced, converted = [], [], []
    view = Matrix.entries.fget
    nonzeros, densified = ratlin._nonzeros, ratlin._densified

    def counting_view(m):
        if m.rows * m.cols > 1000:
            dense_views.append((m.rows, m.cols))
        return view(m)

    def counting_as_fraction(x):
        coerced.append(x)
        return as_fraction(x)

    def counting_nonzeros(v):
        converted.append(len(v))
        return nonzeros(v)

    def counting_densified(row, n, den):
        converted.append(n)
        return densified(row, n, den)

    monkeypatch.setattr(Matrix, "entries", property(counting_view))
    monkeypatch.setattr(ratlin, "as_fraction", counting_as_fraction)
    monkeypatch.setattr(liealg, "as_fraction", counting_as_fraction)
    monkeypatch.setattr(ratlin, "_nonzeros", counting_nonzeros)
    monkeypatch.setattr(ratlin, "_densified", counting_densified)
    report = twisted_lefschetz(algebra, module, f, xi)
    assert report.dims == (6, 36, 90, 120, 90, 36, 6)
    assert dense_views == []
    assert len(coerced) < 1000
    assert sum(converted) < 5000


# ---------------------------------------------------------------------------
# the coefficient-system memo
# ---------------------------------------------------------------------------

def _catalog_runs(name):
    """Zero-argument report calls for every sample map of a catalog entry:
    the trivial module, and the adjoint module with xi = f^-1 for the
    invertible maps."""
    algebra = get(name).algebra
    trivial, adjoint = trivial_module(algebra), adjoint_module(algebra)
    runs = []
    for f in sample_endomorphisms(get(name)):
        xi = identity_intertwiner(f, trivial)
        runs.append(lambda f=f, xi=xi: twisted_lefschetz(algebra, trivial,
                                                         f, xi))
        if determinant(f.matrix) != 0:
            xi = Intertwiner(morphism=f, module=adjoint,
                             matrix=inverse(f.matrix))
            runs.append(lambda f=f, xi=xi: twisted_lefschetz(algebra, adjoint,
                                                             f, xi))
    return runs


@pytest.mark.parametrize("name", list_entries())
def test_memo_hit_equals_cold_report(name):
    runs = _catalog_runs(name)
    cold = []
    for run in runs:
        coefficient_system.cache_clear()
        cold.append(run())
    warm = [run() for run in runs] + [run() for run in runs]
    assert warm == cold + cold
    assert [repr(r) for r in warm] == [repr(r) for r in cold + cold]


MODULE_ELSEWHERE = whole("module is not over the given algebra")
MORPHISM_ELSEWHERE = whole("morphism is not over the given algebra")
INTERTWINER_ELSEWHERE = whole("intertwiner is over another map or module")


def test_module_over_another_algebra_raises_after_a_hit():
    a3 = get("abelian_3").algebra
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    _trivial_run(HEIS3, f.matrix)
    _trivial_run(HEIS3, f.matrix)
    # the trivial modules of heisenberg3 and abelian_3 have equal actions
    other = trivial_module(a3)
    with pytest.raises(InvalidInput, match=MODULE_ELSEWHERE):
        twisted_lefschetz(HEIS3, other, f, identity_intertwiner(f, other))
    with pytest.raises(InvalidInput, match=MODULE_ELSEWHERE):
        coefficient_system(HEIS3, other)


def test_morphism_over_another_algebra_is_invalid_input():
    # diag(1, 1, 5) is a morphism of abelian_3 but not of heisenberg3
    a3 = get("abelian_3").algebra
    module = trivial_module(HEIS3)
    f = endomorphism(a3, Matrix.diagonal([1, 1, 5]))
    with pytest.raises(InvalidInput, match=MORPHISM_ELSEWHERE):
        twisted_lefschetz(HEIS3, module, f, identity_intertwiner(f, module))
    # a map from heisenberg3 into abelian_3 is not an endomorphism either
    g = liealg.LieMorphism(source=HEIS3, target=a3,
                           matrix=Matrix.diagonal([1, 1, 5]))
    with pytest.raises(InvalidInput, match=MORPHISM_ELSEWHERE):
        twisted_lefschetz(HEIS3, module, g, identity_intertwiner(g, module))


def test_intertwiner_over_another_map_or_module_is_invalid_input():
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    other_map = endomorphism(HEIS3, Matrix.identity(3))
    module = trivial_module(HEIS3)
    with pytest.raises(InvalidInput, match=INTERTWINER_ELSEWHERE):
        twisted_lefschetz(HEIS3, module, f,
                          identity_intertwiner(other_map, module))
    # a module of the same dimension with another action
    other_module = Representation(algebra=HEIS3, dim=1, actions=(
        Matrix([[1]]), Matrix([[0]]), Matrix([[0]])))
    with pytest.raises(InvalidInput, match=INTERTWINER_ELSEWHERE):
        twisted_lefschetz(HEIS3, module, f,
                          identity_intertwiner(f, other_module))


def test_module_mismatch_is_checked_before_the_algebra():
    # bad fails Jacobi, but a module over another algebra is named first
    bad = LieAlgebra(dim=3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(InvalidInput, match=MODULE_ELSEWHERE):
        coefficient_system(bad, trivial_module(HEIS3))


def test_non_jacobi_algebra_raises_on_every_call():
    # [e0,e1] = e2, [e0,e2] = e0 fails Jacobi on (0,1,2); nothing of it is
    # kept, so each call checks it again
    bad = LieAlgebra(dim=3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    errors = []
    for _ in range(2):
        with pytest.raises(JacobiViolation) as err:
            _trivial_run(bad, Matrix.identity(3))
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])
    assert coefficient_system.cache_info().currsize == 0


def test_memo_keeps_the_most_recently_used_entries():
    # the abelian algebra of dim 1 acts on Q by any scalar
    a1 = get("abelian_1").algebra
    systems = [Representation(algebra=a1, dim=1, actions=(Matrix([[c]]),))
               for c in range(ratlin.MEMO_SIZE + 5)]
    built = [coefficient_system(a1, systems[0])]
    for module in systems[1:]:
        built.append(coefficient_system(a1, module))
        assert coefficient_system(a1, systems[0]) is built[0]
        assert coefficient_system.cache_info().currsize <= ratlin.MEMO_SIZE
    assert coefficient_system.cache_info().currsize == ratlin.MEMO_SIZE
    # systems[0] was used after each other one, so the oldest others went
    assert coefficient_system(a1, systems[-1]) is built[-1]
    assert coefficient_system(a1, systems[1]) is not built[1]


def test_second_map_on_a_coefficient_system_eliminates_nothing(monkeypatch):
    # A structural guard in place of a timing test: a second filiform6
    # report with the adjoint module and another map builds no differential
    # and runs none of the eliminations behind the cohomology.
    calls = []
    for name in ("_differential", "kernel_and_image", "quotient_basis"):
        def counting(*args, real=getattr(cecomplex, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cecomplex, name, counting)
    first = twisted_lefschetz(*_filiform_adjoint(6, t=2))
    assert len(calls) == 6 + 6 + 7
    calls.clear()
    second = twisted_lefschetz(*_filiform_adjoint(6, t=3))
    assert calls == []
    assert first.betti == second.betti and second.lefschetz == second.hopf


def test_a_non_morphism_is_refused_before_any_complex_is_built(monkeypatch):
    # the map is checked first, so a refused map costs no complex, and its
    # coefficient system is not cached
    calls = []

    def counting(*args, real=cecomplex.build_complex):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr("lietrace.lefschetz.build_complex", counting)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 5]))
    module = trivial_module(HEIS3)
    with pytest.raises(InvalidInput, match=whole(
            "bracket not preserved on basis pair (0,1), defect (0, 0, 1)")):
        twisted_lefschetz(HEIS3, module, f, identity_intertwiner(f, module))
    assert calls == []
    assert coefficient_system.cache_info().currsize == 0

"""Structure constants, Jacobi validation, series, morphisms."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietrace import liealg, ratlin
from lietrace.catalog import get
from lietrace.cecomplex import build_complex
from lietrace.liealg import (JacobiViolation, LieAlgebra, LieMorphism,
                             NotAMorphism, ad, bracket, check_morphism,
                             endomorphism, integer_brackets, is_morphism,
                             is_nilpotent, is_solvable, series, validate)
from lietrace.ratlin import InvalidInput, Matrix, inverse, p_subsets
from lietrace.nilshadow import SplitPresentation
from lietrace.repn import (Intertwiner, adjoint_module, trivial_module,
                           validate_intertwiner, validate_rep)

from generated import generated_cases
from helpers import (ALL_NAMES, basis_bracket, kernel_basis, reference_ad,
                     reference_bracket, reference_check_morphism,
                     reference_series, reference_validate)


HEIS3 = get("heisenberg3").algebra
SOL3 = get("sol3").algebra


def test_validate_catalog_algebras():
    for name in ALL_NAMES:
        validate(get(name).algebra)


def test_validate_rejects_bad3():
    # [e0,e1] = e2, [e0,e2] = e0 fails Jacobi on (0,1,2):
    # [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = 0 + 0 + [-e0,e1] = -e2
    bad3 = LieAlgebra(dim=3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(JacobiViolation) as err:
        validate(bad3)
    assert err.value.triple == (0, 1, 2)
    assert err.value.defect == (Fraction(0), Fraction(0), Fraction(-1))


def _jacobi_holds_by_ad(algebra: LieAlgebra) -> bool:
    # independent oracle: Jacobi <=> ad([e_i,e_j]) = [ad e_i, ad e_j]
    n = algebra.dim
    units = [tuple(Fraction(a == i) for a in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = ad(algebra, basis_bracket(algebra, i, j))
            adi, adj = ad(algebra, units[i]), ad(algebra, units[j])
            if lhs != adi * adj - adj * adi:
                return False
    return True


def test_fuzz_single_constant_perturbations():
    # add one random structure constant to heisenberg3 and compare validate()
    # against the independent ad-operator characterization of Jacobi
    rng = random.Random(61)
    rejected = 0
    for _ in range(60):
        i, j = sorted(rng.sample(range(3), 2))
        k = rng.randrange(3)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        brackets = {pair: dict(comp) for pair, comp in HEIS3.brackets.items()}
        entry = brackets.setdefault((i, j), {})
        entry[k] = entry.get(k, Fraction(0)) + c
        perturbed = LieAlgebra(dim=3, brackets=brackets)
        expected = _jacobi_holds_by_ad(perturbed)
        try:
            validate(perturbed)
            assert expected, f"validate accepted a Jacobi violation {brackets}"
        except JacobiViolation:
            rejected += 1
            assert not expected, f"validate rejected a valid algebra {brackets}"
    assert rejected > 0  # e.g. [e1,e2] = c e1 breaks Jacobi


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(67)
    for name in ALL_NAMES:
        algebra = get(name).algebra
        n = algebra.dim
        for _ in range(15):
            x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n))
            y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n))
            z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            assert bracket(algebra, x, y) == \
                tuple(-v for v in bracket(algebra, y, x))
            assert bracket(algebra, x, x) == (Fraction(0),) * n
            lin = bracket(algebra, tuple(a + 2 * b for a, b in zip(x, z)), y)
            split = tuple(a + 2 * b for a, b in
                          zip(bracket(algebra, x, y), bracket(algebra, z, y)))
            assert lin == split


def test_ad_frozen_example():
    # sol3: ad(e0) = diag(0, 1, -1)
    e0 = (Fraction(1), Fraction(0), Fraction(0))
    assert ad(SOL3, e0) == Matrix.diagonal([0, 1, -1])
    # heisenberg3: ad(e0) sends e1 to e2
    e0 = (Fraction(1), Fraction(0), Fraction(0))
    assert ad(HEIS3, e0) == Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    # abelian: every ad vanishes
    abelian = get("abelian_3").algebra
    assert ad(abelian, e0) == Matrix.zero(3, 3)


def test_bracket_frozen_linearity_example():
    # sol3: [e0, e1 + e2] = e1 - e2
    e0 = (Fraction(1), Fraction(0), Fraction(0))
    e1_plus_e2 = (Fraction(0), Fraction(1), Fraction(1))
    assert bracket(SOL3, e0, e1_plus_e2) == \
        (Fraction(0), Fraction(1), Fraction(-1))


def test_bracket_length_mismatch_raises():
    with pytest.raises(ValueError, match="length 3 and 2"):
        bracket(SOL3, (Fraction(1),) * 3, (Fraction(1),) * 2)


def test_ad_length_mismatch_raises():
    with pytest.raises(ValueError, match="length 2 in an algebra of dim 3"):
        ad(SOL3, (Fraction(1),) * 2)


# ad, bracket, validate, series and check_morphism against the dense
# reference kernels in helpers, on structure-constant tables beyond the
# catalog: == results and identical violation messages.

_COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def _broken_tables(draw):
    """Random structure constants; most of them break Jacobi."""
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.sampled_from(p_subsets(n, 2)), unique=True))
    return LieAlgebra(dim=n, brackets={
        pair: draw(st.dictionaries(st.integers(0, n - 1), _COEFF,
                                   min_size=1, max_size=2))
        for pair in pairs})


@st.composite
def _central_extensions(draw):
    """g + Qz with [x, y]' = [x, y] + w(x, y) z for a catalog algebra g and
    a small integer combination w of the 2-cocycles of its trivial-module
    complex: the cocycle identity is Jacobi for the extension."""
    base = get(draw(st.sampled_from(ALL_NAMES))).algebra
    n = base.dim
    pairs = p_subsets(n, 2)
    if n >= 3:
        cocycles = kernel_basis(build_complex(
            base, trivial_module(base)).differentials[2])
    else:
        cocycles = list(Matrix.identity(len(pairs)).entries)
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(cocycles),
                            max_size=len(cocycles)))
    brackets = {pair: dict(comps) for pair, comps in base.brackets.items()}
    for idx, pair in enumerate(pairs):
        w = sum((c * v[idx] for c, v in zip(weights, cocycles)), Fraction(0))
        if w:
            brackets.setdefault(pair, {})[n] = w
    return LieAlgebra(dim=n + 1, brackets=brackets)


def _outcome(check, arg):
    try:
        check(arg)
    except (JacobiViolation, NotAMorphism) as exc:
        return type(exc), str(exc), exc.defect
    return None


def _vector(n):
    return st.tuples(*[st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 3])
                       .map(Fraction)] * n)


def _agrees_with_reference(algebra, data):
    assert _outcome(validate, algebra) == _outcome(reference_validate, algebra)
    for kind in ("lower_central", "derived"):
        assert series(algebra, kind) == reference_series(algebra, kind)
    n = algebra.dim
    x, y = data.draw(_vector(n)), data.draw(_vector(n))
    assert bracket(algebra, x, y) == reference_bracket(algebra, x, y)
    assert ad(algebra, x) == reference_ad(algebra, x)
    f = endomorphism(algebra, Matrix([data.draw(_vector(n)) for _ in range(n)]))
    assert _outcome(check_morphism, f) == _outcome(reference_check_morphism, f)


@settings(max_examples=150, deadline=None)
@given(_broken_tables(), st.data())
def test_random_tables_agree_with_dense_reference(algebra, data):
    _agrees_with_reference(algebra, data)


@settings(max_examples=150, deadline=None)
@given(_central_extensions(), st.data())
def test_central_extensions_agree_with_dense_reference(algebra, data):
    validate(algebra)
    _agrees_with_reference(algebra, data)


def test_series_frozen_dims():
    assert series(HEIS3, "lower_central").dims == (3, 1, 0)
    assert series(HEIS3, "derived").dims == (3, 1, 0)
    assert series(SOL3, "lower_central").dims == (3, 2, 2)
    assert series(SOL3, "derived").dims == (3, 2, 0)
    assert series(get("abelian_3").algebra, "lower_central").dims == (3, 0)
    assert series(get("filiform4").algebra, "lower_central").dims == (4, 2, 1, 0)


def test_nilpotent_and_solvable_flags():
    assert is_nilpotent(HEIS3) and is_solvable(HEIS3)
    assert not is_nilpotent(SOL3) and is_solvable(SOL3)
    for name in ALL_NAMES:
        algebra = get(name).algebra
        if is_nilpotent(algebra):    # nilpotent always implies solvable
            assert is_solvable(algebra)


def test_morphism_frozen_examples():
    check_morphism(endomorphism(HEIS3, Matrix.diagonal([2, 3, 6])))
    with pytest.raises(NotAMorphism) as err:
        check_morphism(endomorphism(HEIS3, Matrix.diagonal([2, 3, 5])))
    assert err.value.pair == (0, 1)
    # defect [f e0, f e1] - f[e0,e1] = 6 e2 - 5 e2 = e2
    assert err.value.defect == (Fraction(0), Fraction(0), Fraction(1))


def test_morphism_preserves_all_basis_brackets():
    for name in ALL_NAMES:
        entry = get(name)
        from lietrace.catalog import sample_endomorphisms
        for f in sample_endomorphisms(entry):
            check_morphism(f)
            m = f.matrix
            for i in range(entry.algebra.dim):
                for j in range(i + 1, entry.algebra.dim):
                    assert m.apply(basis_bracket(entry.algebra, i, j)) == \
                        bracket(entry.algebra, m.transpose().row(i),
                                m.transpose().row(j))


def test_zero_and_identity_are_morphisms():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        assert is_morphism(endomorphism(algebra, Matrix.zero(algebra.dim,
                                                             algebra.dim)))
        assert is_morphism(endomorphism(algebra, Matrix.identity(algebra.dim)))


def test_dimension_guards():
    with pytest.raises(ValueError):
        LieAlgebra(dim=0)
    with pytest.raises(ValueError):
        LieAlgebra(dim=2, brackets={(1, 0): {0: 1}})  # need left < right
    with pytest.raises(ValueError):
        LieAlgebra(dim=2, brackets={(0, 1): {5: 1}})  # index range


@pytest.mark.parametrize("build, message", [
    (lambda: LieAlgebra(dim=2, labels=("x",)), "labels length must equal dim"),
    (lambda: LieMorphism(source=get("abelian_2").algebra, target=HEIS3,
                         matrix=Matrix.identity(2)),
     "matrix shape 2x2 does not map dim 2 into dim 3"),
], ids=["labels", "morphism shape"])
def test_constructor_guard_messages(build, message):
    with pytest.raises(InvalidInput) as err:
        build()
    assert (err.type, str(err.value)) == (InvalidInput, message)


def test_filiform7_validators_stay_sparse(monkeypatch):
    # A structural guard in place of a timing test: the four input checks
    # on filiform7 with the adjoint module and f = diag(2^w) convert fewer
    # than 300 cells of dense vectors to or from sparse rows.  Every bracket
    # identity is a product of sparse action matrices; the count is
    # deterministic.
    n = 7
    algebra = LieAlgebra(dim=n, brackets={(0, i): {i + 1: 1}
                                          for i in range(1, n - 1)})
    weights = (1,) + tuple(range(1, n))
    f = endomorphism(algebra, Matrix.diagonal([2 ** w for w in weights]))
    module = adjoint_module(algebra)
    xi = Intertwiner(morphism=f, module=module, matrix=inverse(f.matrix))
    converted = []
    nonzeros, densified = ratlin._nonzeros, ratlin._densified

    def counting_nonzeros(v):
        converted.append(len(v))
        return nonzeros(v)

    def counting_densified(row, n, den):
        converted.append(n)
        return densified(row, n, den)

    monkeypatch.setattr(ratlin, "_nonzeros", counting_nonzeros)
    monkeypatch.setattr(ratlin, "_densified", counting_densified)
    validate(algebra)
    validate_rep(module)
    check_morphism(f)
    validate_intertwiner(xi)
    assert sum(converted) < 300


def test_algebras_from_equal_brackets_are_equal_values():
    # dict order, coefficient type and zero coefficients do not change the
    # value; labels do
    tables = [{(0, 1): {2: 1, 3: 0}, (0, 2): {3: Fraction(1, 2)}},
              {(0, 2): {3: "1/2"}, (0, 1): {2: Fraction(1)}},
              {(0, 2): {3: Fraction(2, 4)}, (0, 1): {3: "0", 2: "1"},
               (1, 2): {0: 0}}]
    algebras = [LieAlgebra(dim=4, brackets=table) for table in tables]
    assert all(a == algebras[0] for a in algebras)
    assert len({hash(a) for a in algebras}) == 1
    assert len(set(algebras)) == 1
    named = LieAlgebra(dim=4, brackets=tables[0], labels=("x", "y", "z", "w"))
    assert named != algebras[0]
    modules = {adjoint_module(a): a for a in algebras}
    assert list(modules) == [adjoint_module(algebras[0])]
    splits = {SplitPresentation(algebra=a, nil_ideal=(1, 2, 3),
                                complement=(0,)) for a in algebras}
    assert len(splits) == 1


def test_each_structure_constant_is_coerced_once(monkeypatch):
    # the value and the zero filter share one coercion per coefficient
    coerced = []

    def counting(x, real=liealg.as_fraction):
        coerced.append(x)
        return real(x)
    monkeypatch.setattr(liealg, "as_fraction", counting)
    algebra = LieAlgebra(dim=4, brackets={(0, 1): {2: "1", 3: 0},
                                          (0, 2): {3: Fraction(1, 2)}})
    assert coerced == ["1", 0, Fraction(1, 2)]
    assert {pair: dict(c) for pair, c in algebra.brackets.items()} == \
        {(0, 1): {2: 1}, (0, 2): {3: Fraction(1, 2)}}


def test_second_check_morphism_builds_no_ads(monkeypatch):
    # A structural guard: the basis ads are built once per algebra, so a
    # second morphism check packs none of their rows, and the adjoint
    # module's actions are the same tuple.
    algebra = get("heisenberg5").algebra
    f = endomorphism(algebra, Matrix.diagonal([2, 2, 2, 2, 4]))
    check_morphism(f)
    rows = []

    def counting(acc, real=liealg.packed_row):
        rows.append(acc)
        return real(acc)

    monkeypatch.setattr(liealg, "packed_row", counting)
    check_morphism(f)
    assert rows == []
    assert adjoint_module(algebra).actions is algebra.basis_ads


def test_failed_check_without_a_defect_is_a_library_bug(monkeypatch):
    # A failed bracket check names its defect from the terms it checked;
    # when they sum to no defect the check is wrong, which must not pass as
    # a valid input
    monkeypatch.setattr(liealg, "vanishes", lambda terms: False)
    with pytest.raises(ratlin.InternalConsistencyFailure,
                       match="no nonzero column past 1"):
        validate(get("heisenberg5").algebra)
    with pytest.raises(ratlin.InternalConsistencyFailure,
                       match="no nonzero column past 0"):
        check_morphism(endomorphism(HEIS3, Matrix.diagonal([2, 3, 6])))


def test_integer_brackets_equal_a_fraction_reference():
    # the structure constants over the lcm of their denominators, keyed and
    # ordered as in algebra.brackets, on the catalog, the generated
    # algebras and two tables with non-integer constants
    algebras = [get(name).algebra for name in ALL_NAMES]
    algebras += [algebra for _, algebra, *_ in generated_cases()]
    algebras += [LieAlgebra(dim=3, brackets={(0, 1): {1: "1/2"},
                                             (0, 2): {2: "-3/4"}}),
                 LieAlgebra(dim=4, brackets={(0, 1): {2: "2/3", 3: "5/6"},
                                             (0, 2): {3: "-4/9"}})]
    for algebra in algebras:
        brackets, den = integer_brackets(algebra)
        assert den == lcm(*[c.denominator
                            for comps in algebra.brackets.values()
                            for c in comps.values()])
        assert list(brackets) == list(algebra.brackets)
        assert all(type(c) is int for comps in brackets.values()
                   for c in comps.values())
        assert {key: {k: Fraction(c, den) for k, c in comps.items()}
                for key, comps in brackets.items()} == \
            {key: dict(comps) for key, comps in algebra.brackets.items()}

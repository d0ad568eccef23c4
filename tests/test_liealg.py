"""Structure constants, Jacobi validation, series, morphisms."""

import random
from fractions import Fraction

import pytest

from lietrace.catalog import get
from lietrace.liealg import (JacobiViolation, LieAlgebra, NotAMorphism, ad,
                             bracket, check_morphism, endomorphism,
                             is_morphism, is_nilpotent, is_solvable, series,
                             validate)
from lietrace.ratlin import Matrix

from helpers import ALL_NAMES


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
            lhs = ad(algebra, algebra.basis_bracket(i, j))
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
                    assert m.apply(entry.algebra.basis_bracket(i, j)) == \
                        bracket(entry.algebra, m.column(i), m.column(j))


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

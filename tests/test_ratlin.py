"""Exact linear algebra layer: frozen small oracles plus seeded properties."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lietrace
from lietrace import ratlin
from lietrace.ratlin import (InternalConsistencyFailure, JordanParts, Matrix,
                             SingularMatrix, det_i_minus, determinant,
                             exterior_powers,
                             format_rational, inverse,
                             jordan_chevalley, kernel_and_image, kron,
                             linear_combination, minimal_polynomial, p_subsets,
                             parse_integer, parse_rational,
                             quotient_basis, rref, squarefree_part, vanishes)

from helpers import (NotInSpan, dense_matrix, greedy_complete,
                     is_nilpotent_matrix, is_squarefree, kernel_basis, random_invertible,
                     random_matrix, reference_determinant,
                     reference_exterior_power, reference_inverse,
                     reference_kernel_and_image, reference_kron,
                     reference_minimal_polynomial, reference_mul,
                     reference_rref,
                     reference_solve_all_in_span, reference_submatrix,
                     reference_transpose, solve_all_in_span, solve_in_span,
                     whole)


def test_parse_and_format_rational():
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("4/6") == Fraction(2, 3)   # canonicalized
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(14, 2)) == "7"
    # "5\n" passed a $-anchored match, and \d any Unicode digit, such as
    # the Arabic-Indic three; int() alone would also take "1_0" and "+1"
    for bad in ("1.5", "1e3", " 1", "1/ 2", "1/-2", "--1", "", "a", "1/0",
                "5\n", "1/2\n", "\u0663", "1/\u0663", "1_0", "+1"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    assert [parse_integer(x) for x in ("0", "-12", "007")] == [0, -12, 7]
    for bad in ("1/2", "5\n", " 5", "\u0663", "1_0", "+1", "-", ""):
        with pytest.raises(ValueError, match=whole(
                f"not an integer literal: {bad!r}")):
            parse_integer(bad)


def test_rational_canonical_form_is_stable():
    # products/sums of Fractions stay in lowest terms with positive denominator
    rng = random.Random(5)
    m = random_matrix(rng, 4) * random_matrix(rng, 4) + random_matrix(rng, 4)
    for row in m.entries:
        for x in row:
            assert x.denominator > 0
            assert Fraction(x.numerator, x.denominator) == x
            assert parse_rational(format_rational(x)) == x


def test_rref_frozen_example():
    reduced, pivots, r = rref(Matrix([[1, 2], [2, 4]]))
    assert reduced == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert r == 1
    assert rref(Matrix.identity(2)) == (Matrix.identity(2), (0, 1), 2)
    assert rref(Matrix.zero(3, 3)) == (Matrix.zero(3, 3), (), 0)


def test_rref_is_idempotent_and_deterministic():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5))
        reduced, pivots, r = rref(m)
        again, pivots2, r2 = rref(reduced)
        assert again == reduced and pivots2 == pivots and r2 == r


def test_kernel_frozen_example():
    assert kernel_basis(Matrix([[1, 1]])) == [(Fraction(-1), Fraction(1))]
    assert kernel_basis(Matrix.zero(2, 2)) == [(Fraction(1), Fraction(0)),
                                               (Fraction(0), Fraction(1))]
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
                    for _ in range(rows)])
        basis = kernel_basis(m)
        assert len(basis) == cols - rref(m)[2]
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_determinant_frozen_examples():
    # hand cofactor expansion: 0*(-1) - (-1)*(-1) = -1
    assert determinant(Matrix([[-1, -1], [-1, 0]])) == -1
    assert determinant(Matrix.identity(3)) == 1
    assert determinant(Matrix([[2, 0], [0, 3]])) == 6
    assert determinant(Matrix([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError, match=whole("determinant of 1x3 matrix")):
        determinant(Matrix([[1, 2, 3]]))


def test_determinant_multiplicative():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 5)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert determinant(a * b) == determinant(a) * determinant(b)


def test_inverse_round_trip():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_invertible(rng, n)
        assert m * inverse(m) == Matrix.identity(n)


def test_solve_in_span_frozen_examples():
    e0 = (Fraction(1), Fraction(0))
    e1 = (Fraction(0), Fraction(1))
    assert solve_in_span([(Fraction(1),)], (Fraction(3),)) == [Fraction(3)]
    with pytest.raises(NotInSpan):
        solve_in_span([e0], e1)
    # basis {e0+e1, e1}, target e0 -> [1, -1]
    assert solve_in_span([(Fraction(1), Fraction(1)), e1], e0) == \
        [Fraction(1), Fraction(-1)]
    with pytest.raises(NotInSpan):  # dependent basis is refused
        solve_in_span([e0, e0], e0)
    with pytest.raises(ValueError, match="length 2, target of length 1"):
        solve_in_span([e0], (Fraction(1),))


def test_apply_shape_mismatch_names_both_shapes():
    m = Matrix([[1, 0, 2], [0, 3, 0]])
    assert m.apply((Fraction(1), Fraction(1), Fraction(1))) == (3, 3)
    with pytest.raises(ValueError, match="2x3 \\* 2x1"):
        m.apply((Fraction(1), Fraction(1)))


# small rational vectors with many dependencies: entries in {-2..2}/{1,2}
_ENTRY = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))


def _vectors(dim, max_count, min_count=0):
    return st.lists(st.tuples(*[_ENTRY] * dim), min_size=min_count,
                    max_size=max_count)


@st.composite
def _kernel_and_fixed(draw):
    """A kernel basis as kernel_and_image writes it, and rows in its span:
    small integer combinations of its rows, so often dependent."""
    dim = draw(st.integers(1, 5))
    m = dense_matrix(draw(_vectors(dim, 3)), dim)
    kernel = kernel_and_image(m)[0]
    combos = draw(st.lists(st.lists(st.integers(-1, 1), min_size=kernel.rows,
                                    max_size=kernel.rows), max_size=4))
    fixed = [tuple(sum((c * x for c, x in zip(combo, column)), Fraction(0))
                   for column in kernel.transpose().entries) for combo in combos]
    return kernel, dense_matrix(fixed, dim)


@settings(max_examples=80, deadline=None)
@given(_kernel_and_fixed(), st.data())
def test_quotient_basis_is_greedy_with_coordinates(pair, data):
    kernel, fixed = pair
    rows, coordinates, rank = quotient_basis(kernel, fixed)
    assert list(rows.entries) == greedy_complete(fixed.entries,
                                                 kernel.entries)
    assert rank == rref(fixed)[2]
    assert (coordinates.rows, coordinates.cols) == (kernel.cols, rows.rows)
    # v = a . rows + b . fixed has coefficients a modulo span(fixed)
    a = data.draw(st.lists(_ENTRY, min_size=rows.rows, max_size=rows.rows))
    b = data.draw(st.lists(_ENTRY, min_size=fixed.rows, max_size=fixed.rows))
    v = Matrix([a]) * rows + Matrix([b]) * fixed
    assert (v * coordinates).entries == (tuple(a),)


def test_quotient_basis_frozen_example():
    # kernel of [[1, 1, 0]] is -e0 + e1, e2 (free columns 1 and 2); with
    # e2 fixed only the first row is kept, and a vector's coefficient on it
    # is its entry at column 1
    kernel = kernel_and_image(Matrix([[1, 1, 0]]))[0]
    rows, coordinates, rank = quotient_basis(kernel, Matrix([[0, 0, 2]]))
    assert rows == Matrix([[-1, 1, 0]]) and rank == 1
    assert coordinates == Matrix([[0], [1], [0]])


_MIXED = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_MIXED, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([])
@example([[Fraction(0), Fraction(1, 2)], [Fraction(3, 4), Fraction(0)]])
def test_trace_is_the_fraction_sum(rows):
    m = dense_matrix(rows, len(rows))
    trace = m.trace()
    assert type(trace) is Fraction
    assert trace == sum((rows[i][i] for i in range(len(rows))), Fraction(0))


@st.composite
def _basis_and_coefficients(draw, codim=0):
    """An independent basis of at most dim - codim vectors, and coefficient
    lists for targets in its span."""
    dim = draw(st.integers(1 + codim, 4))
    basis = draw(_vectors(dim, dim - codim, min_count=1))
    assume(rref(Matrix(basis))[2] == len(basis))
    coeffs = draw(st.lists(st.lists(_ENTRY, min_size=len(basis),
                                    max_size=len(basis)), max_size=4))
    return basis, coeffs


def _combine(basis, coeffs):
    return tuple(sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
                 for i in range(len(basis[0])))


@settings(max_examples=80, deadline=None)
@given(_basis_and_coefficients())
def test_batched_solve_equals_per_target_solve(case):
    basis, coeffs = case
    targets = [_combine(basis, c) for c in coeffs]
    batched = solve_all_in_span(Matrix(basis),
                                dense_matrix(targets, len(basis[0])))
    batched = [list(c) for c in batched.transpose().entries]
    assert batched == [solve_in_span(basis, t) for t in targets]
    assert batched == coeffs  # an independent basis gives unique coefficients


@settings(max_examples=80, deadline=None)
@given(_basis_and_coefficients(codim=1), st.data())
def test_out_of_span_target_raises(case, data):
    basis, coeffs = case
    outside = data.draw(st.tuples(*[_ENTRY] * len(basis[0])))
    assume(rref(Matrix(basis + [outside]))[2] > len(basis))
    with pytest.raises(NotInSpan):
        solve_in_span(basis, outside)
    targets = [_combine(basis, c) for c in coeffs] + [outside]
    with pytest.raises(NotInSpan):
        solve_all_in_span(Matrix(basis), Matrix(targets))


def test_exterior_power_frozen_examples():
    m = Matrix.diagonal([2, 3, 6])
    assert exterior_powers(m) == [Matrix([[1]]), m, Matrix.diagonal([6, 12, 18]),
                                  Matrix([[36]])]
    with pytest.raises(ValueError,
                       match=whole("exterior power of non-square matrix")):
        exterior_powers(Matrix([[1, 2]]))


def test_exterior_powers_reuse_their_subset_tables(monkeypatch):
    # the Laplace tables depend on the dimension only: the powers of the
    # first 7 x 7 matrix build the subsets of every size once, and those of
    # a second build none
    rng = random.Random(43)
    first, second = (random_matrix(rng, 7) for _ in range(2))
    sizes = []

    def recording(n, p):
        sizes.append(p)
        return p_subsets(n, p)

    monkeypatch.setattr(ratlin, "p_subsets", recording)
    exterior_powers(first)
    assert sizes == [1, 2, 3, 4, 5, 6, 7]
    sizes.clear()
    powers = exterior_powers(second)
    assert sizes == []
    assert powers == [reference_exterior_power(second, p) for p in range(8)]


def test_exterior_power_multiplicative():
    # Cauchy-Binet: Lambda^p(AB) = Lambda^p(A) Lambda^p(B)
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert exterior_powers(a * b) == [
            x * y for x, y in zip(exterior_powers(a), exterior_powers(b))]
    assert exterior_powers(Matrix.identity(4))[2] == Matrix.identity(6)


def test_characteristic_identity_small():
    # by hand for [[2,1],[1,1]]: 1 - 3 + 1 = -1 = det(I - m)
    m = Matrix([[2, 1], [1, 1]])
    total = sum((-1) ** p * power.trace()
                for p, power in enumerate(exterior_powers(m)))
    assert total == Fraction(-1)
    assert determinant(Matrix.identity(2) - m) == Fraction(-1)


def test_characteristic_identity_random():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        lhs = sum((-1) ** p * power.trace()
                  for p, power in enumerate(exterior_powers(m)))
        assert lhs == determinant(Matrix.identity(n) - m)


# Fraction-free kernels against the Fraction references in helpers.  Entries
# are mostly zero, with negative numerators and denominators up to 10**6;
# rows may be dependent, columns zero, and the first pivot may need a swap.
_WIDE_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3])),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@st.composite
def _kernel_matrices(draw, square=False, max_rows=5):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(0, 6))
    entries = [[draw(_WIDE_ENTRY) for _ in range(cols)] for _ in range(rows)]
    if cols and rows > 1 and draw(st.booleans()):
        # last row a combination of the first two: rank deficient
        a, b = draw(_ENTRY), draw(_ENTRY)
        entries[-1] = [a * x + b * y for x, y in zip(entries[0], entries[1])]
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in entries:
            row[j] = Fraction(0)
    if cols and rows > 1 and draw(st.booleans()):
        # zero top-left entry over a nonzero one: the first pivot swaps rows
        entries[0][0] = Fraction(0)
        entries[1][0] = draw(_WIDE_ENTRY.filter(bool))
    return Matrix(entries)


@settings(max_examples=300, deadline=None)
@given(_kernel_matrices())
def test_rref_equals_fraction_reference(m):
    assert rref(m) == reference_rref(m)
    _assert_same(rref(m)[0], reference_rref(m)[0])


@settings(max_examples=300, deadline=None)
@given(_kernel_matrices(square=True))
def test_determinant_equals_fraction_reference(m):
    assert determinant(m) == reference_determinant(m)


@settings(max_examples=100, deadline=None)
@given(_kernel_matrices(square=True, max_rows=4))
def test_exterior_powers_equal_minor_reference(m):
    powers = exterior_powers(m)
    assert len(powers) == m.rows + 1
    for p, power in enumerate(powers):
        _assert_same(power, reference_exterior_power(m, p))


@settings(max_examples=300, deadline=None)
@given(_kernel_matrices(square=True, max_rows=6))
def test_inverse_and_det_i_minus_equal_fraction_reference(m):
    if reference_determinant(m) == 0:
        with pytest.raises(SingularMatrix):
            inverse(m)
    else:
        _assert_same(inverse(m), reference_inverse(m))
    identity = Matrix.identity(m.rows)
    assert det_i_minus(m) == reference_determinant(identity - m)


def _inverse_cases() -> list:
    """Invertible matrices for n = 0..6: hand-made ones that force row swaps
    (a zero leading entry), end on negative pivots, or have rows over
    unrelated denominators; then seeded ones, each row over its own
    denominator, half their entries zero and some with a zero lead."""
    cases = [Matrix([]), Matrix([["-3/7"]]), Matrix([[0, 1], [2, 3]]),
             Matrix([[-2, 1], [1, -3]]), Matrix([[0, -1], [-1, 0]]),
             Matrix([[0, 0, 5], [0, -2, 1], [-3, 1, 1]]),
             Matrix([["1/2", "1/3", 0], [0, "1/5", "1/7"],
                     ["1/11", 0, "1/13"]]),
             Matrix([[0, 0, 0, -1], [0, 0, "-2/3", 0], [0, "5/7", 0, 0],
                     ["-1/4", 0, 0, 0]])]
    rng = random.Random(43)
    for n in range(7):
        found = 0
        while found < 3:
            rows = []
            for _ in range(n):
                d = rng.choice([1, 2, 3, 5, 7, 11])
                rows.append([Fraction(rng.randint(-4, 4), d)
                             if rng.random() < 0.5 else 0 for _ in range(n)])
            if n > 1 and found == 0:
                rows[0][0] = 0
            m = dense_matrix(rows, n)
            if reference_determinant(m) != 0:
                cases.append(m)
                found += 1
    return cases


@pytest.mark.parametrize("m", _inverse_cases(),
                         ids=lambda m: f"{m.rows}x{m.cols}")
def test_inverse_stores_what_the_fraction_reference_stores(m):
    got, want = inverse(m), reference_inverse(m)
    assert got.sparse == want.sparse
    assert got.den == want.den
    _assert_same(got, want)
    assert m * got == Matrix.identity(m.rows) == got * m


def test_inverse_rejects_singular_and_non_square_matrices():
    for m in (Matrix([[0]]), Matrix([[1, 2], [2, 4]]), Matrix.zero(2, 2),
              Matrix([[1, 0, 2], [3, 0, 4], [5, 0, 6]]),
              Matrix([["1/2", "1/3"], ["3/2", 1]])):
        with pytest.raises(SingularMatrix):
            inverse(m)
        with pytest.raises(SingularMatrix):
            reference_inverse(m)
    for m in (Matrix([[1, 2, 3]]), Matrix([[1], [2]]), Matrix([[], []])):
        with pytest.raises(ValueError,
                           match=whole("inverse of non-square matrix")):
            inverse(m)
        with pytest.raises(ValueError, match=whole(
                f"det(I - m) of {m.rows}x{m.cols} matrix")):
            det_i_minus(m)


def test_det_i_minus_frozen_examples():
    # det(I - m) over den > 1, by hand: (1 - 1/2)(1 + 2/3) - (1/3)(1/4)
    m = Matrix([["1/2", "-1/3"], ["-1/4", "-2/3"]])
    assert det_i_minus(m) == Fraction(1, 2) * Fraction(5, 3) - Fraction(1, 12)
    for m in (Matrix([]), Matrix([["5/3"]]), Matrix.identity(3),
              Matrix([[0, "1/2", 0], ["2/9", 1, "-7/5"], [0, 0, "3/4"]])):
        assert det_i_minus(m) == reference_determinant(
            Matrix.identity(m.rows) - m)
    assert det_i_minus(Matrix([])) == 1
    assert det_i_minus(Matrix.identity(3)) == 0


def test_product_with_a_square_identity_is_the_other_factor():
    a = Matrix([["1/2", 0, -3], [0, 0, 0]])
    assert a * Matrix.identity(3) is a
    assert Matrix.identity(2) * a is a
    empty = Matrix.zero(0, 3)
    assert empty * Matrix.identity(3) is empty
    # scaled identities, one stored as identity rows over den 2, and a
    # non-square matrix whose rows look like identity rows are multiplied,
    # not returned
    p = Matrix([[1, 0, 0], [0, 1, 0]])
    b = Matrix([[1, 2], [3, 4], [5, 6]])
    _assert_same(p * b, reference_mul(p, b))
    assert (p * b).trace() == 5
    c = Matrix([[1, 2], [3, 4]])
    _assert_same(c * p, reference_mul(c, p))
    assert (c * p).cols == 3
    for scaled in (2 * Matrix.identity(2), Matrix.identity(2) * "1/2"):
        _assert_same(scaled * c, reference_mul(scaled, c))
        _assert_same(c * scaled, reference_mul(c, scaled))
    with pytest.raises(ValueError, match="shape mismatch 2x3 \\* 2x2"):
        a * Matrix.identity(2)


def test_kernels_on_edge_shapes():
    empty = Matrix([])  # a matrix without rows has no columns either: 0x0
    assert (empty.rows, empty.cols) == (0, 0)
    no_columns = Matrix([[], [], []])
    assert (no_columns.rows, no_columns.cols) == (3, 0)
    singles = [Matrix([[0]]), Matrix([[Fraction(-7, 10**6)]]),
               Matrix([[Fraction(999999, 1000000)]])]
    for m in [empty, no_columns] + singles:
        assert rref(m) == reference_rref(m)
    for m in [empty] + singles:
        assert determinant(m) == reference_determinant(m)
        assert exterior_powers(m) == [reference_exterior_power(m, p)
                                      for p in range(m.rows + 1)]
    assert determinant(empty) == 1
    assert exterior_powers(empty) == [Matrix([[1]])]
    with pytest.raises(ValueError,
                       match=whole("exterior power of non-square matrix")):
        exterior_powers(no_columns)


# The sparse storage against the dense reference kernels in helpers, on
# matrices 0-30% nonzero, with empty rows and 0 x k and k x 0 shapes.
_NONZERO = st.one_of(
    st.builds(Fraction, st.integers(-9, 9).filter(bool),
              st.sampled_from([1, 2, 3])),
    st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
              st.integers(1, 10**6)))


@st.composite
def _sparse_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    nonzero = draw(st.sets(st.sampled_from(cells),
                           max_size=3 * len(cells) // 10)) if cells else set()
    return dense_matrix([[draw(_NONZERO) if (i, j) in nonzero else 0
                          for j in range(cols)] for i in range(rows)], cols)


def _assert_well_formed(m: Matrix) -> None:
    """Sparse rows: one per row, columns strictly increasing and in range,
    every stored value a nonzero int; one int denominator den > 0 with
    gcd(den, numerators) = 1, so a zero matrix has den 1."""
    assert len(m.sparse) == m.rows
    assert type(m.den) is int and m.den > 0
    for row in m.sparse:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)), row
        assert all(0 <= j < m.cols for j in cols), row
        assert all(type(x) is int and x for _, x in row), row
    assert gcd(m.den, *[x for row in m.sparse for _, x in row]) == 1


def _assert_same(got: Matrix, want: Matrix) -> None:
    """A sparse-built result against a Matrix(dense) one."""
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    _assert_well_formed(got)


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_elimination_equals_dense_reference(m):
    _assert_well_formed(m)
    reduced = rref(m)
    assert reduced == reference_rref(m)
    _assert_same(reduced[0], reference_rref(m)[0])
    kernel, image = kernel_and_image(m)
    _assert_well_formed(kernel)
    _assert_well_formed(image)
    assert (kernel.cols, image.cols) == (m.cols, m.rows)
    assert (list(kernel.entries), list(image.entries)) == \
        reference_kernel_and_image(m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_products_equal_dense_reference(data):
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(_sparse_matrices(r, k))
    b = data.draw(_sparse_matrices(k, c))
    row_idx = data.draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    col_idx = data.draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    _assert_same(a * b, reference_mul(a, b))
    _assert_same(kron(a, b), reference_kron(a, b))
    _assert_same(a.transpose(), reference_transpose(a))
    _assert_same(a.submatrix(row_idx, col_idx),
                 reference_submatrix(a, row_idx, col_idx))
    _assert_same(dense_matrix(a.entries, k), a)
    if r:
        _assert_same(dense_matrix(a.transpose().entries, r).transpose(), a)


def test_a_matrix_is_its_four_fields():
    # no dense view is stored next to the sparse rows
    assert Matrix.__slots__ == ("rows", "cols", "sparse", "den")


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices(), st.integers(-8, 8), st.integers(-8, 8))
def test_dense_views_agree_and_round_trip(m, i, j):
    # entries, row(i) and m[i, j] are built from the sparse rows on each
    # read: they agree cell by cell, index as tuples do (negative indices,
    # IndexError out of range) and give m back
    entries = m.entries
    assert all(type(x) is Fraction for row in entries for x in row)
    assert entries == tuple(m.row(r) for r in range(m.rows))
    assert all(m[r, c] == entries[r][c]
               for r in range(m.rows) for c in range(m.cols))
    assert dense_matrix(entries, m.cols) == m
    if not -m.rows <= i < m.rows:
        with pytest.raises(IndexError):
            m.row(i)
    elif -m.cols <= j < m.cols:
        assert m.row(i) == entries[i] and m[i, j] == entries[i][j]
        return
    with pytest.raises(IndexError):
        m[i, j]


_KRON_CASES = {
    # g = gcd(a.den * b.den, content(a) * content(b)) > 1 from one side
    "a.den-with-content(b)": (Matrix([["1/3"]]), Matrix([[3, 6]])),
    "b.den-with-content(a)": (Matrix([[2, 4], [0, 6]]),
                              Matrix([["1/2", "3/2"]])),
    "both-sides": (Matrix([["2/3"]]), Matrix([["3/4", "3/2"]])),
    "negative": (Matrix([["-2/3", 0], ["4/3", -2]]),
                 Matrix([["-3/4"], ["9/4"]])),
    "zero-left": (Matrix.zero(2, 3), Matrix([["1/2", -3]])),
    "zero-right": (Matrix([["1/2"], [4]]), Matrix.zero(2, 2)),
    "0x0": (Matrix.zero(0, 0), Matrix([["1/2", 3]])),
    "0xn": (Matrix([["2/5", 1]]), Matrix.zero(0, 3)),
    "identity": (Matrix([["3/2", 0], [-1, "5/7"]]), Matrix.identity(1)),
}


@pytest.mark.parametrize("case", _KRON_CASES.values(), ids=_KRON_CASES.keys())
def test_kron_cells_are_built_in_lowest_terms(case):
    a, b = case
    _assert_same(kron(a, b), reference_kron(a, b))
    _assert_same(kron(b, a), reference_kron(b, a))


_MUL_CASES = {
    # a one-entry left row is the right factor's row, scaled
    "one-entry-into-empty-rows": (Matrix([[0, "2/3", 0], [-3, 0, 0],
                                          [0, 0, 5]]),
                                  Matrix([[0, 0, 0], [0, 0, 0],
                                          ["1/2", 0, -2]])),
    "one-entry-into-multi-entry-rows": (Matrix([["-3/2", 0, 0], [0, 0, 4],
                                                [0, 1, 0]]),
                                        Matrix([[1, "2/5", 0], [0, 0, 0],
                                                [-6, 0, "3/7"]])),
    # the product numerators share a factor 2 with den 4: the division in
    # lowest terms skips the empty rows
    "gcd-above-one-with-empty-rows": (Matrix([["1/2", "1/2", 0], [0, 0, 0],
                                              [0, "3/4", 0], [0, 0, 0]]),
                                      Matrix([[2, 4, 0], [0, 6, 0],
                                              [0, 0, 0]])),
    "one-entry-into-non-square": (Matrix([[0, "1/3"], [-2, 0], [0, 0]]),
                                  Matrix([[1, 0, "-1/2", 0, 3],
                                          [0, 0, 0, 6, 0]])),
    "zero-left": (Matrix.zero(2, 3), Matrix([["1/2", 1], [0, 0], [3, 0]])),
    "zero-right": (Matrix([["1/2", 0, 2], [0, 5, 0]]), Matrix.zero(3, 2)),
    "0xn-left": (Matrix.zero(0, 3), Matrix([[1, "2/3"], [0, 4], [5, 0]])),
    "nx0-into-0xn": (Matrix.zero(2, 0), Matrix.zero(0, 3)),
}


@pytest.mark.parametrize("case", _MUL_CASES.values(), ids=_MUL_CASES.keys())
def test_products_of_pinned_rows_equal_dense_reference(case):
    a, b = case
    _assert_same(a * b, reference_mul(a, b))
    if b.cols == a.rows:
        _assert_same(b * a, reference_mul(b, a))


def test_kron_with_the_one_by_one_identity_is_the_matrix_itself():
    a, one = Matrix([["-3/4", 0, 2], [0, 0, 0]]), Matrix.identity(1)
    assert kron(a, one) is a
    _assert_same(kron(a, one), reference_kron(a, one))
    _assert_same(kron(one, a), a)


@pytest.mark.parametrize("dens", [[1, 1], [-1, 1], [-1, -1], [2, -3]],
                         ids=str)
def test_over_lcm_of_rows_keeps_the_sign_of_each_row(dens):
    # rref passes its pivots as the dens, and a pivot may be -1: the rows
    # come back over one den > 0 with each row's value unchanged
    rows = [[(0, 2), (2, -3)], [(1, 6)]]
    sparse, den = ratlin._over_lcm_of_rows(rows, dens)
    assert type(den) is int and den > 0
    assert gcd(den, *[x for row in sparse for _, x in row]) == 1
    assert all(type(row) is tuple for row in sparse)
    for got, row, d in zip(sparse, rows, dens, strict=True):
        assert [(j, Fraction(x, den)) for j, x in got] == \
            [(j, Fraction(x, d)) for j, x in row]


def _dense_sum(terms, shape) -> Matrix:
    """The sum of c * m over the (c, m) pairs, entry by entry in Fraction."""
    rows, cols = shape
    return dense_matrix([[sum((c * m.entries[i][j] for c, m in terms),
                              Fraction(0)) for j in range(cols)]
                         for i in range(rows)], cols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sums_and_scalings_equal_dense_reference(data):
    r, k = (data.draw(st.integers(0, 6)) for _ in range(2))
    a, b = (data.draw(_sparse_matrices(r, k)) for _ in range(2))
    x, y = data.draw(_WIDE_ENTRY), data.draw(_WIDE_ENTRY)
    _assert_same(a + b, _dense_sum([(1, a), (1, b)], (r, k)))
    _assert_same(a - b, _dense_sum([(1, a), (-1, b)], (r, k)))
    _assert_same(-a, _dense_sum([(-1, a)], (r, k)))
    _assert_same(x * a, _dense_sum([(x, a)], (r, k)))
    _assert_same(a * y, _dense_sum([(y, a)], (r, k)))
    if r or k:
        _assert_same(linear_combination([(0, x), (1, y), (0, y)], [a, b]),
                     _dense_sum([(x, a), (y, b), (y, a)], (r, k)))
        d = data.draw(st.integers(1, 10 ** 6))
        _assert_same(linear_combination([(1, d)], [a, b], d), b)


# The identity kernel against the dense Fraction sum over reference_mul:
# vanishes(terms) says whether the sum of c * a * b is zero, on sums that
# cancel in any order, sums that leave zero in their last row only, lone
# terms, no terms and 0 x k and k x 0 shapes; coefficients and entries have
# denominators up to 10**6.
_COEFFICIENT = st.one_of(st.integers(-3, 3), _WIDE_ENTRY)


@st.composite
def _product_terms(draw, rows, cols):
    """Up to three (c, a, b) terms of shape rows x cols, b None for a lone a."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        c = draw(_COEFFICIENT)
        if draw(st.booleans()):
            terms.append((c, draw(_sparse_matrices(rows, cols)), None))
        else:
            inner = draw(st.integers(0, 5))
            terms.append((c, draw(_sparse_matrices(rows, inner)),
                          draw(_sparse_matrices(inner, cols))))
    return terms


def _dense_value(terms, shape) -> Matrix:
    return _dense_sum([(c, a if b is None else reference_mul(a, b))
                       for c, a, b in terms], shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vanishes_equals_dense_reference(data):
    r, k = (data.draw(st.integers(0, 5)) for _ in range(2))
    terms = data.draw(_product_terms(r, k))
    assert vanishes(terms) == _dense_value(terms, (r, k)).is_zero()
    # A * B - (A * B), each term against its value, shuffled
    zero = terms + [(-c, a if b is None else a * b, None) for c, a, b in terms]
    zero = data.draw(st.permutations(zero))
    assert _dense_value(zero, (r, k)).is_zero()
    assert vanishes(zero)
    if r and k:   # one nonzero entry in the last row only
        j, x = data.draw(st.integers(0, k - 1)), data.draw(_NONZERO)
        last = [x if col == j else 0 for col in range(k)]
        off = zero + [(1, dense_matrix([[0] * k] * (r - 1) + [last], k), None)]
        off = data.draw(st.permutations(off))
        assert not _dense_value(off, (r, k)).is_zero()
        assert not vanishes(off)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)],
                         ids=lambda shape: "%dx%d" % shape)
def test_vanishes_on_no_terms_and_empty_shapes(shape):
    rows, cols = shape
    assert vanishes([])
    assert vanishes([(1, Matrix.zero(rows, cols), None)])
    assert vanishes([(Fraction(7, 10**6), Matrix.zero(rows, 2),
                      Matrix.zero(2, cols)), (0, Matrix.zero(rows, cols), None)])


def test_vanishes_names_both_shapes_on_a_mismatch():
    a = Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x3 \* 2x3$"):
        vanishes([(1, a, a)])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x3 \+ 3x3$"):
        vanishes([(1, a, None), (0, Matrix.identity(3), None)])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x3 \+ 2x2$"):
        vanishes([(1, a, None), (1, a, a.transpose())])


# A term with a zero factor (c = 0, or a or b with no nonzero row) adds
# nothing, and vanishes drops it, but only after every term's shapes are
# checked.
def test_vanishes_drops_zero_terms_after_the_shape_check():
    a = Matrix([[1, 2], [0, Fraction(1, 3)]])
    zero, zero_23 = Matrix.zero(2, 2), Matrix.zero(2, 3)
    zeros = [(5, zero, a), (Fraction(-1, 7), a, zero), (0, a, a),
             (3, zero, None), (1, Matrix.zero(2, 5), Matrix.zero(5, 2))]
    assert vanishes(zeros)
    for k in range(len(zeros) + 1):
        assert not vanishes(zeros[:k] + [(1, a, None)] + zeros[k:])
        assert not vanishes(zeros[:k] + [(2, a, a)] + zeros[k:])
        assert vanishes(zeros[:k] + [(1, a, a), (-1, a * a, None)] + zeros[k:])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x3 \* 2x2$"):
        vanishes([(1, a, None), (1, zero_23, zero)])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x2 \+ 2x3$"):
        vanishes([(1, a, None), (1, zero_23, None)])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x2 \+ 2x3$"):
        vanishes([(1, a, None), (1, a, zero_23)])
    with pytest.raises(ValueError, match=r"^shape mismatch 2x2 \+ 2x3$"):
        vanishes([(0, zero, zero), (1, zero, zero_23)])


# Canonical form: one value, one stored form.  The same matrix reached by
# different routes stores the same numerators over the same denominator, so
# it compares == and hashes equal; denominators run up to 10**6.
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_same_matrix_by_different_routes_is_stored_once(data):
    r, k, l, c = (data.draw(st.integers(0, 5)) for _ in range(4))
    a = data.draw(_sparse_matrices(r, k))
    b = data.draw(_sparse_matrices(k, l))
    c_ = data.draw(_sparse_matrices(l, c))
    x = data.draw(_NONZERO)
    _assert_same((a * b) * c_, a * (b * c_))
    _assert_same((2 * a) * Fraction(1, 2), a)
    _assert_same((a * x) * (1 / x), a)
    _assert_same(a - a, Matrix.zero(r, k))
    _assert_same(a + a, 2 * a)
    _assert_same(a.transpose().transpose(), a)
    _assert_same((a * b).transpose(), b.transpose() * a.transpose())
    _assert_same(kron(a, Matrix([[x]])), x * a)
    _assert_same(a.submatrix(range(r), range(k)), a)
    _assert_same(rref(a * x)[0], rref(a)[0])


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 3)],
                         ids=lambda shape: "%dx%d" % shape)
def test_zero_matrices_are_stored_once(shape):
    rows, cols = shape
    zero = Matrix.zero(rows, cols)
    half = Matrix([[Fraction(1, 2)] * cols] * rows) if rows else zero
    for route in (half - half, Fraction(0) * half, half * Matrix.zero(cols, cols),
                  kron(half, Matrix.zero(1, 1)),
                  Matrix.zero(rows, 0) * Matrix.zero(0, cols),
                  dense_matrix([[0] * cols] * rows, cols)):
        _assert_same(route, zero)
        assert route.den == 1


def _solve_outcome(solve, basis, targets):
    try:
        return solve(basis, targets)
    except NotInSpan as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_solve_equals_dense_reference(data):
    dim = data.draw(st.integers(1, 6))
    basis = data.draw(_sparse_matrices(dim, data.draw(st.integers(0, dim))))
    coeffs = data.draw(_sparse_matrices(basis.cols, data.draw(st.integers(0, 3))))
    targets = list(reference_mul(basis, coeffs).transpose().entries) \
        if basis.cols else []
    if data.draw(st.booleans()):
        targets.append(data.draw(_sparse_matrices(dim, 1)).transpose().row(0))
    basis, targets = basis.transpose(), dense_matrix(targets, dim)
    assert (_solve_outcome(solve_all_in_span, basis, targets)
            == _solve_outcome(reference_solve_all_in_span, basis, targets))


def test_zeros_are_not_stored():
    for m in (Matrix([[0, 1, 0], [0, 0, 0]]), Matrix([(0, "0")]).transpose(),
              Matrix([[1, 2]]) - Matrix([[1, 2]]), Matrix.diagonal([0, 3]),
              Fraction(0) * Matrix.identity(2), rref(Matrix([[1, 1], [1, 1]]))[0]):
        _assert_well_formed(m)
    assert Matrix([[0, 1, 0], [0, 0, 0]]).sparse == (((1, 1),), ())
    assert (Matrix([[1, 2]]) - Matrix([[1, 2]])).is_zero()
    with pytest.raises(TypeError):   # a float is rejected even when zero
        Matrix([(0.0, 1)]).transpose()


def _only_fractions(m: Matrix) -> bool:
    return all(type(x) is Fraction for row in m.entries for x in row)


def test_internal_results_hold_only_fractions():
    # built from ints through the public constructor; no result may carry an
    # int, even where a product or sum is exactly zero
    a = Matrix([[1, 0, 2], [3, 4, 0]])
    b = Matrix([[0, 1], [2, 0], [0, 5]])
    sq = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, -3]])
    results = [rref(a)[0], rref(Matrix.zero(2, 2))[0], a * b,
               a * Matrix.zero(3, 2), 3 * a, a * Fraction(1, 2), a + a, a - a,
               -a, a.transpose(), a.submatrix([1], [0, 2]),
               kron(sq, a), Matrix(a.transpose().entries).transpose(),
               Matrix([(1, 2), (3, 4)]).transpose(), Matrix.identity(3),
               Matrix.zero(2, 3), inverse(sq)]
    results += exterior_powers(sq) + exterior_powers(Matrix.zero(3, 3))
    for m in results:
        assert _only_fractions(m), m


def test_shape_mismatch_names_both_shapes():
    a, b = Matrix([[1, 2]]), Matrix([[1], [2]])
    with pytest.raises(ValueError, match="1x2 \\+ 2x1"):
        a + b
    with pytest.raises(ValueError, match="1x2 - 2x1"):
        a - b


# Run under `python -O`, which strips assert statements: the shape checks
# and the torus generator certificate must still raise.
_OPTIMIZED_SHAPE_SCRIPT = """
import sys
from fractions import Fraction
from lietrace import torus_oracle
from lietrace.liealg import LieAlgebra, bracket
from lietrace.ratlin import InternalConsistencyFailure, Matrix, inverse
if not sys.flags.optimize:
    sys.exit("not running under -O")
missing = []
try:
    Matrix([[1, 2]]) + Matrix([[1], [2]])
    missing.append("Matrix.__add__")
except ValueError:
    pass
try:
    bracket(LieAlgebra(dim=2), (1, 2), (1,))
    missing.append("bracket")
except ValueError:
    pass
# halved generators of the fixed point group fail B g in Z^n
torus_oracle.inverse = lambda m: Fraction(1, 2) * inverse(m)
try:
    torus_oracle.count_fixed_points(torus_oracle.TorusMap(((2, 1), (1, 1))))
    missing.append("count_fixed_points")
except InternalConsistencyFailure as exc:
    if "not integral" not in str(exc):
        missing.append("count_fixed_points")
sys.exit("no check fired in " + ", ".join(missing) if missing else 0)
"""


# Run under `python -O` too: the rank-nullity, representative and cochain
# trace certificates raise on the mutants their firing tests use, the last
# through a report and through induced_chain_map called directly.
_OPTIMIZED_CERTIFICATE_SCRIPT = """
import sys
from lietrace import cecomplex, lefschetz
from lietrace.catalog import get
from lietrace.liealg import endomorphism
from lietrace.ratlin import (InternalConsistencyFailure, Matrix,
                             kernel_and_image, quotient_basis)
from lietrace.repn import Intertwiner, adjoint_module, trivial_module
if not sys.flags.optimize:
    sys.exit("not running under -O")
h3 = get("heisenberg3").algebra

def negated(kernel, fixed):
    reps, coordinates, rank = quotient_basis(kernel, fixed)
    return reps, -coordinates, rank

def swap_in_e2(kernel, fixed):
    reps, coordinates, rank = quotient_basis(kernel, fixed)
    if reps.cols == 3 and reps.rows:
        reps = Matrix(list(reps.entries[:-1]) + [[0, 0, 1]])
    return reps, coordinates, rank

def drop_first(m):
    kernel, image = kernel_and_image(m)
    return kernel.submatrix(range(1, kernel.rows), range(kernel.cols)), image

def scalar_dropped(lam, mu, n, real=cecomplex._weights):
    return real(lam, [1] if len(mu) == 1 else mu, n)

def cohomology_of(module):
    return lambda: cecomplex.cohomology(cecomplex.build_complex(h3, module))

def report():
    module = trivial_module(h3)
    f = endomorphism(h3, Matrix.diagonal([2, 3, 6]))
    lefschetz.twisted_lefschetz(h3, module, f, Intertwiner(
        morphism=f, module=module, matrix=Matrix([[2]])))

def chain_map():
    module = trivial_module(h3)
    f = endomorphism(h3, Matrix.diagonal([2, 3, 6]))
    cecomplex.induced_chain_map(
        cecomplex.build_complex(h3, module), f,
        Intertwiner(morphism=f, module=module, matrix=Matrix([[2]])))

trace_message = "cochain trace 1 at degree 0 != e_0(f) tr xi = 2"
missing = []
for name, mutant, run, message in [
        ("quotient_basis", negated, cohomology_of(trivial_module(h3)),
         "class coordinates do not invert"),
        ("quotient_basis", swap_in_e2, cohomology_of(trivial_module(h3)),
         "not a cocycle"),
        ("kernel_and_image", drop_first, cohomology_of(adjoint_module(h3)),
         "rank-nullity"),
        ("_weights", scalar_dropped, report, trace_message),
        ("_weights", scalar_dropped, chain_map, trace_message)]:
    real = getattr(cecomplex, name)
    setattr(cecomplex, name, mutant)
    lefschetz.coefficient_system.cache_clear()
    try:
        run()
        missing.append(message)
    except InternalConsistencyFailure as exc:
        if message not in str(exc):
            missing.append(message)
    finally:
        setattr(cecomplex, name, real)
sys.exit("no check fired for " + ", ".join(missing) if missing else 0)
"""


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrace.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_shape_checks_survive_python_O():
    proc = _run_optimized(_OPTIMIZED_SHAPE_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_cohomology_and_trace_certificates_survive_python_O():
    proc = _run_optimized(_OPTIMIZED_CERTIFICATE_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_minimal_polynomial_frozen():
    # swap: x^2 - 1; scalar 5 on dim 3: x - 5; Jordan block: (x-1)^2
    assert minimal_polynomial(Matrix([[0, 1], [1, 0]])) == \
        [Fraction(-1), Fraction(0), Fraction(1)]
    assert minimal_polynomial(5 * Matrix.identity(3)) == \
        [Fraction(-5), Fraction(1)]
    assert minimal_polynomial(Matrix([[1, 1], [0, 1]])) == \
        [Fraction(1), Fraction(-2), Fraction(1)]
    assert squarefree_part([Fraction(1), Fraction(-2), Fraction(1)]) == \
        [Fraction(-1), Fraction(1)]


@st.composite
def _repeated_eigenvalue_matrices(draw):
    """P (D + N0) P^-1 with eigenvalues from a set of three, so they repeat,
    and N0 strictly upper inside equal-eigenvalue blocks."""
    n = draw(st.integers(1, 5))
    eigen = sorted(draw(st.lists(st.sampled_from([-1, 0, 2]), min_size=n,
                                 max_size=n)))
    n0 = Matrix([[draw(st.integers(-2, 2)) if i < j and eigen[i] == eigen[j]
                  else 0 for j in range(n)] for i in range(n)])
    p = random_invertible(random.Random(draw(st.integers(0, 10 ** 6))), n)
    return p * (Matrix.diagonal(eigen) + n0) * inverse(p)


@settings(max_examples=150, deadline=None)
@given(_repeated_eigenvalue_matrices())
def test_minimal_polynomial_equals_iterated_reference(m):
    assert minimal_polynomial(m) == reference_minimal_polynomial(m)


def test_minimal_polynomial_makes_one_rref(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.cols)
        return rref(m)

    monkeypatch.setattr(ratlin, "rref", counting)
    rng = random.Random(59)
    for m in [Matrix([[1, 1], [0, 1]]), 5 * Matrix.identity(3)] + \
            [random_matrix(rng, rng.randint(1, 4)) for _ in range(10)]:
        calls.clear()
        minimal_polynomial(m)
        assert calls == [m.rows + 1]   # the Krylov columns I, m, ..., m^n


def test_jordan_chevalley_frozen_examples():
    parts = jordan_chevalley(Matrix([[1, 1], [0, 1]]))
    assert parts.semisimple == Matrix.identity(2)
    assert parts.nilpotent == Matrix([[0, 1], [0, 0]])
    parts = jordan_chevalley(Matrix([[0, 1], [1, 0]]))  # already semisimple
    assert parts.semisimple == Matrix([[0, 1], [1, 0]])
    assert parts.nilpotent.is_zero()
    parts = jordan_chevalley(Matrix.diagonal([1, -1]))
    assert parts.semisimple == Matrix.diagonal([1, -1])
    assert parts.nilpotent.is_zero()


def test_polynomial_certificates_raise(monkeypatch):
    # each internal identity of the Jordan-Chevalley path raises a real
    # exception (not an assert) when a helper is made to lie
    with pytest.raises(ZeroDivisionError):
        ratlin._poly_divmod([Fraction(1)], [Fraction(0)])
    block = Matrix([[1, 1], [0, 1]])
    for lie in (_every_column_a_pivot, lambda m: (m, (0, 2), 2)):
        with monkeypatch.context() as mp:
            mp.setattr(ratlin, "rref", lie)
            with pytest.raises(InternalConsistencyFailure, match="exceeded"):
                minimal_polynomial(block)
    with monkeypatch.context() as mp:
        mp.setattr(ratlin, "_poly_gcd", lambda p, q: [Fraction(2), Fraction(1)])
        with pytest.raises(InternalConsistencyFailure, match="squarefree"):
            squarefree_part([Fraction(-1), Fraction(0), Fraction(1)])
    with monkeypatch.context() as mp:
        mp.setattr(ratlin, "inverse", _always_singular)
        with pytest.raises(InternalConsistencyFailure, match="not invertible"):
            jordan_chevalley(block)
    with monkeypatch.context() as mp:
        mp.setattr(ratlin, "inverse", lambda m: Matrix.zero(m.rows, m.cols))
        with pytest.raises(InternalConsistencyFailure, match="converge"):
            jordan_chevalley(block)


def _always_singular(m):
    raise SingularMatrix("forced for the test")


def _every_column_a_pivot(m):
    # claims I, m, ..., m^n are independent, which Cayley-Hamilton forbids
    return m, tuple(range(m.cols)), m.cols


def _check_jordan_parts(m: Matrix, parts: JordanParts):
    s, n = parts.semisimple, parts.nilpotent
    assert s + n == m
    assert s * n == n * s
    assert is_nilpotent_matrix(n)
    assert is_squarefree(minimal_polynomial(s))


def test_jordan_chevalley_constructive_oracle():
    # build m = P (D + N0) P^-1 with commuting diagonal D and strictly upper
    # N0 supported inside equal-eigenvalue blocks; uniqueness of the
    # decomposition forces S = P D P^-1 and N = P N0 P^-1.
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 4)
        eigen = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        eigen.sort()
        d = Matrix.diagonal(eigen)
        n0_rows = [[Fraction(rng.randint(-2, 2))
                    if i < j and eigen[i] == eigen[j] else Fraction(0)
                    for j in range(n)] for i in range(n)]
        n0 = Matrix(n0_rows)
        p = random_invertible(rng, n)
        p_inv = inverse(p)
        m = p * (d + n0) * p_inv
        parts = jordan_chevalley(m)
        _check_jordan_parts(m, parts)
        assert parts.semisimple == p * d * p_inv
        assert parts.nilpotent == p * n0 * p_inv


def test_jordan_chevalley_invariants_random():
    rng = random.Random(53)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4))
        _check_jordan_parts(m, jordan_chevalley(m))


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix([[1, 2], [3]]), "ragged rows"),
    (lambda: Matrix([[1, 2]]).trace(), "trace of non-square matrix"),
    (lambda: minimal_polynomial(Matrix([[1, 2]])),
     "minimal polynomial of non-square matrix"),
    (lambda: jordan_chevalley(Matrix([[1, 2]])),
     "jordan_chevalley of non-square matrix"),
    (lambda: lietrace.series(lietrace.LieAlgebra(dim=2), "upper"),
     "unknown series kind 'upper'"),
], ids=["ragged", "trace", "minimal-polynomial", "jordan-chevalley",
        "series"])
def test_misuse_messages(call, message):
    # library misuse is a plain ValueError, never InvalidInput
    with pytest.raises(ValueError, match=whole(message)) as err:
        call()
    assert err.type is ValueError

"""Torus fixed-point counting against hand-worked examples."""

import random
import time
from fractions import Fraction

import pytest

from lietrace import liealg, ratlin, torus_oracle
from lietrace.cecomplex import InternalConsistencyFailure
from lietrace.ratlin import InvalidInput, determinant, inverse
from lietrace.torus_oracle import (MAX_FIXED_POINTS, TorusMap,
                                   count_fixed_points, cross_check_with_ce)

from helpers import (det_a_minus_i, random_int_matrix, reference_fixed_points,
                     whole)

DEGENERATE = whole("det(A - I) = 0, fixed points are not isolated; the "
                   "Lefschetz number is still available through the cochain "
                   "pipeline (lefschetz command)")


def test_cat_like_map_frozen():
    # det(A - I) = -1: exactly the origin, index -1
    report = count_fixed_points(TorusMap(((2, 1), (1, 1))))
    assert report.count == 1
    assert report.lefschetz == -1
    assert report.index_each == -1
    assert report.points == ((Fraction(0), Fraction(0)),)


def test_quarter_turn_frozen():
    # rotation by 90 degrees: fixed points (0,0) and (1/2,1/2), L = 2
    report = count_fixed_points(TorusMap(((0, -1), (1, 0))))
    assert report.count == 2
    assert report.lefschetz == 2
    assert report.index_each == 1
    assert report.points == ((Fraction(0), Fraction(0)),
                             (Fraction(1, 2), Fraction(1, 2)))


def test_diagonal_scaling_frozen():
    # x1 fixed only at 0; 2 x2 integral at x2 in {0, 1/2}
    report = count_fixed_points(TorusMap(((2, 0), (0, 3))))
    assert report.count == 2
    assert report.lefschetz == 2
    assert report.points == ((Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(1, 2)))


def test_circle_maps_frozen():
    doubling = count_fixed_points(TorusMap(((2,),)))
    assert doubling.count == 1 and doubling.lefschetz == -1
    flip = count_fixed_points(TorusMap(((-1,),)))
    assert flip.count == 2 and flip.lefschetz == 2
    assert flip.points == ((Fraction(0),), (Fraction(1, 2),))


def test_degenerate_maps_rejected():
    with pytest.raises(InvalidInput, match=DEGENERATE):
        count_fixed_points(TorusMap(((1, 0), (0, 1))))
    # one eigenvalue 1 suffices
    with pytest.raises(InvalidInput, match=DEGENERATE):
        count_fixed_points(TorusMap(((1, 0), (7, 5))))


def test_integer_entries_enforced():
    for entry in (Fraction(1, 2), 1.0, True):
        with pytest.raises(InvalidInput, match=whole(
                f"entry {entry!r} is not an integer")):
            TorusMap(((entry,),))
    with pytest.raises(InvalidInput, match=whole("matrix must be square")):
        TorusMap(((1, 2),))


def test_empty_matrix_rejected():
    # the torus of dimension 0 has no cochain side to cross-check against
    for rows in ((), []):
        with pytest.raises(InvalidInput, match="at least one row"):
            TorusMap(matrix=rows)


def test_lefschetz_equals_sum_of_indices():
    rng = random.Random(131)
    checked = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(n))
        if det_a_minus_i(rows) == 0:
            with pytest.raises(InvalidInput, match=DEGENERATE):
                count_fixed_points(TorusMap(rows))
            continue
        report = count_fixed_points(TorusMap(rows))
        checked += 1
        assert report.lefschetz == report.index_each * report.count
        assert len(report.points) == report.count
        for point in report.points:
            assert all(0 <= x < 1 for x in point)
            # verify fixedness: (A - I) x is integral
            for i in range(n):
                s = sum(rows[i][j] * point[j] for j in range(n)) - point[i]
                assert s.denominator == 1
    assert checked >= 30


def test_transpose_has_same_count():
    rng = random.Random(137)
    for _ in range(25):
        n = rng.choice([2, 3])
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(n))
        transposed = tuple(tuple(rows[j][i] for j in range(n))
                           for i in range(n))
        if det_a_minus_i(rows) == 0:
            for m in (rows, transposed):
                with pytest.raises(InvalidInput, match=DEGENERATE):
                    count_fixed_points(TorusMap(m))
            continue
        first = count_fixed_points(TorusMap(rows))
        second = count_fixed_points(TorusMap(transposed))
        assert first.count == second.count
        assert first.lefschetz == second.lefschetz


def test_points_equal_bounding_box_scan_on_random_maps():
    rng = random.Random(139)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = random_int_matrix(rng, n, bound=3 if n < 4 else 2)
        if det_a_minus_i(rows) == 0:
            with pytest.raises(InvalidInput, match=DEGENERATE):
                count_fixed_points(TorusMap(rows))
            continue
        report = count_fixed_points(TorusMap(rows))
        checked += 1
        assert report.points == reference_fixed_points(rows), rows
    assert checked >= 100


@pytest.mark.parametrize("k", [0, 1, 2, 5, 11, 17, 30])
def test_points_equal_bounding_box_scan_on_shears(k):
    for rows in (((2, k, k), (0, 2, k), (0, 0, 2)),
                 ((-1, k, 0), (0, -1, k), (0, 0, 3))):
        report = count_fixed_points(TorusMap(rows))
        assert report.points == reference_fixed_points(rows)


def test_huge_shear_costs_its_points_not_its_entries():
    # det(A - I) = 1: the one fixed point is the origin; the bounding box of
    # A - I would hold about 4 * 10^12 candidates
    k = 10 ** 6
    start = time.perf_counter()
    report = count_fixed_points(TorusMap(((2, k, k), (0, 2, k), (0, 0, 2))))
    assert time.perf_counter() - start < 1
    assert report.count == 1 and report.lefschetz == -1
    assert report.points == ((Fraction(0), Fraction(0), Fraction(0)),)


def test_fixed_point_count_is_capped():
    # |det(A - I)| is 101^2 = 10201 for 102 I and 100^2 = 10^4 for 101 I
    with pytest.raises(InvalidInput, match=whole(
            "10201 fixed points, above the cap of 10000")):
        count_fixed_points(TorusMap(((102, 0), (0, 102))))
    assert MAX_FIXED_POINTS == 10 ** 4
    assert count_fixed_points(TorusMap(((101, 0), (0, 101)))).count == 10 ** 4


def test_cross_check_with_cochain_pipeline():
    for rows in (((2, 1), (1, 1)), ((0, -1), (1, 0)), ((2, 0), (0, 3)),
                 ((3,),), ((2, 1, 0), (0, 2, 1), (0, 0, -1))):
        report, cochain_value, verdict = cross_check_with_ce(TorusMap(rows))
        assert verdict
        assert cochain_value == report.lefschetz


def test_certificates_raise_when_the_determinant_lies(monkeypatch):
    # a doubled determinant leaves the enumerated points as they are, so the
    # count certificate fails; a non-integer determinant fails its
    # integrality check, and halved generators g fail B g in Z^n
    shear = TorusMap(((2, 1), (1, 1)))
    monkeypatch.setattr(torus_oracle, "determinant",
                        lambda m: 2 * determinant(m))
    with pytest.raises(InternalConsistencyFailure, match="enumeration found 1"):
        count_fixed_points(shear)
    monkeypatch.setattr(torus_oracle, "determinant",
                        lambda m: determinant(m) / 2)
    with pytest.raises(InternalConsistencyFailure, match="not an integer"):
        count_fixed_points(shear)
    monkeypatch.setattr(torus_oracle, "determinant", determinant)
    monkeypatch.setattr(torus_oracle, "inverse",
                        lambda m: Fraction(1, 2) * inverse(m))
    with pytest.raises(InternalConsistencyFailure, match="not integral"):
        count_fixed_points(shear)


def test_second_cross_check_builds_no_ads(monkeypatch):
    # A structural guard: the abelian algebra and its trivial module are
    # built once per dimension, so a second cross-check of that dimension
    # packs none of the basis ads' rows for its morphism check
    cross_check_with_ce(TorusMap(((2, 1), (1, 1))))
    rows = []

    def counting(acc, real=liealg.packed_row):
        rows.append(acc)
        return real(acc)

    monkeypatch.setattr(liealg, "packed_row", counting)
    report, cochain_value, verdict = cross_check_with_ce(
        TorusMap(((3, 1), (1, 1))))
    assert rows == []
    assert verdict and cochain_value == report.lefschetz == -1


def test_second_oracle_calls_run_no_rref(monkeypatch):
    # A structural guard: the generators come from a fraction-free
    # Gauss-Jordan on the integer rows of B^T, not from an rref of [B | I],
    # and the cochain side of a dimension seen before is cached
    shear = TorusMap(((2, 1, 0), (0, 2, 1), (1, 0, 3)))
    cross_check_with_ce(shear)
    calls = []

    def counting(m, real=ratlin.rref):
        calls.append((m.rows, m.cols))
        return real(m)

    for module in (ratlin, liealg):
        monkeypatch.setattr(module, "rref", counting)
    first = count_fixed_points(shear)
    report, cochain_value, verdict = cross_check_with_ce(
        TorusMap(((3, 1, 0), (0, 2, 1), (1, 0, 2))))
    assert calls == []
    assert first.count == 3 and first.lefschetz == -3
    assert verdict and cochain_value == report.lefschetz

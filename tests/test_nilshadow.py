"""Nilshadow construction and determinant transport."""

import random
from fractions import Fraction

import pytest

from lietrace import nilshadow
from lietrace.catalog import get, list_entries, sample_endomorphisms
from lietrace.liealg import LieAlgebra, ad, endomorphism, is_nilpotent
from lietrace.nilshadow import (ComplementNotAbelian, IdealNotNilpotent,
                                NotAnIdeal, SemisimplePartsDoNotCommute,
                                ShadowResult, SplitNotPreserved,
                                SplitPresentation, build_shadow,
                                induced_shadow_map, shadow_report,
                                validate_split)
from lietrace.ratlin import JordanParts, Matrix, determinant, jordan_chevalley

SOL3 = get("sol3")
HEIS3 = get("heisenberg3").algebra
FILIFORM4 = get("filiform4").algebra

# heisenberg ideal plus one semisimple direction: ad(e3) = diag(1, 1, 2) on
# the ideal (a derivation, since the weights add up across [e0,e1] = e2)
MIXED = LieAlgebra(dim=4, brackets={(0, 1): {2: 1}, (0, 3): {0: -1},
                                    (1, 3): {1: -1}, (2, 3): {2: -2}})


SOL3_SPLIT = SplitPresentation(algebra=SOL3.algebra, nil_ideal=(1, 2),
                               complement=(0,))


def _sol3_shadow() -> ShadowResult:
    return build_shadow(SOL3_SPLIT)


def _shadow_lefschetz(split, t):
    """The map report of T and the Lefschetz report of its shadow map,
    whose number must be det(I - T)."""
    _, report, run = shadow_report(split, t)
    assert report.is_shadow_morphism and run.agree
    assert run.lefschetz == report.det_input
    return report, run


def test_sol3_shadow_is_abelian_frozen():
    result = _sol3_shadow()
    assert result.shadow.brackets == {}
    assert is_nilpotent(result.shadow)
    # ad(e0) = diag(0, 1, -1) is already semisimple
    assert result.semisimple_parts == (Matrix.diagonal([0, 1, -1]),)


def test_jordan_block_action_keeps_nilpotent_part():
    # [e2,e0] = e0, [e2,e1] = e0 + e1: ad(e2) on the ideal is the Jordan
    # block [[1,1],[0,1]], so the shadow keeps exactly [e2,e1]' = e0
    algebra = LieAlgebra(dim=3, brackets={(0, 2): {0: -1},
                                          (1, 2): {0: -1, 1: -1}})
    result = build_shadow(SplitPresentation(algebra=algebra,
                                            nil_ideal=(0, 1), complement=(2,)))
    assert result.shadow.brackets == {(1, 2): {0: Fraction(-1)}}
    assert result.semisimple_parts == (Matrix.diagonal([1, 1, 0]),)


def test_mixed_shadow_frozen():
    result = build_shadow(SplitPresentation(algebra=MIXED,
                                            nil_ideal=(0, 1, 2),
                                            complement=(3,)))
    assert result.shadow.brackets == {(0, 1): {2: Fraction(1)}}
    assert result.semisimple_parts == (Matrix.diagonal([1, 1, 2, 0]),)


def test_nilpotent_passthrough():
    # empty complement: the shadow is the algebra itself, bracket for bracket
    for name in ("heisenberg3", "filiform4", "heisenberg5"):
        algebra = get(name).algebra
        result = build_shadow(SplitPresentation(
            algebra=algebra, nil_ideal=tuple(range(algebra.dim)),
            complement=()))
        assert result.shadow.brackets == algebra.brackets
        assert result.semisimple_parts == ()


def test_jordan_chevalley_once_per_complement_generator(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return jordan_chevalley(m)

    monkeypatch.setattr(nilshadow, "jordan_chevalley", counting)
    cases = [(SOL3.algebra, (1, 2), (0,)), (MIXED, (0, 1, 2), (3,)),
             (HEIS3, (0, 1, 2), ())]
    for algebra, ideal, complement in cases:
        calls.clear()
        build_shadow(SplitPresentation(algebra=algebra, nil_ideal=ideal,
                                       complement=complement))
        assert len(calls) == len(complement)


def test_validate_split_returns_jordan_parts():
    parts = validate_split(SplitPresentation(algebra=MIXED,
                                             nil_ideal=(0, 1, 2),
                                             complement=(3,)))
    assert parts == (jordan_chevalley(ad(MIXED, (0, 0, 0, 1))),)


def test_split_partition_guard():
    with pytest.raises(ValueError):
        SplitPresentation(algebra=SOL3.algebra, nil_ideal=(1,), complement=(0,))
    with pytest.raises(ValueError):
        SplitPresentation(algebra=SOL3.algebra, nil_ideal=(0, 1, 2),
                          complement=(2,))


def test_validate_split_errors():
    # marking (0,1) as the ideal fails: [e0, e2] = -e2 escapes it
    with pytest.raises(NotAnIdeal):
        validate_split(SplitPresentation(algebra=SOL3.algebra,
                                         nil_ideal=(0, 1), complement=(2,)))
    # heisenberg3 with complement (0,1): [e0,e1] = e2 != 0
    with pytest.raises(ComplementNotAbelian):
        validate_split(SplitPresentation(algebra=HEIS3, nil_ideal=(2,),
                                         complement=(0, 1)))
    # the whole of sol3 is an ideal of itself but not nilpotent
    with pytest.raises(IdealNotNilpotent):
        validate_split(SplitPresentation(algebra=SOL3.algebra,
                                         nil_ideal=(0, 1, 2), complement=()))
    # not solvable: sl2-like bracket table
    sl2 = LieAlgebra(dim=3, brackets={(0, 1): {2: 1}, (0, 2): {0: -2},
                                      (1, 2): {1: 2}})
    with pytest.raises(ValueError):
        validate_split(SplitPresentation(algebra=sl2, nil_ideal=(0, 1, 2),
                                         complement=()))


def _identity_semisimple(m):
    # a wrong Jordan-Chevalley split: S = I kills no complement vector
    identity = Matrix.identity(m.rows)
    return JordanParts(semisimple=identity, nilpotent=m - identity)


@pytest.mark.parametrize("algebra, ideal, complement, error, message", [
    # [e2, e0] = e2 escapes the marked ideal (0, 1), reported with i > j
    (SOL3.algebra, (0, 1), (2,), NotAnIdeal,
     "[e2, e0] leaves the span of the ideal"),
    (HEIS3, (2,), (0, 1), ComplementNotAbelian, "[e0, e1] != 0"),
    # both checks fail ([e0, e2] = e3 in the complement); the ideal's wins
    (FILIFORM4, (1,), (0, 2, 3), NotAnIdeal,
     "[e0, e1] leaves the span of the ideal"),
    (SOL3.algebra, (1, 2), (0,), SemisimplePartsDoNotCommute,
     "semisimple part of ad(e0) does not kill the complement"),
], ids=["not-an-ideal", "complement-not-abelian", "ideal-wins",
        "semisimple-kills-complement"])
def test_validate_split_messages(monkeypatch, algebra, ideal, complement,
                                 error, message):
    if error is SemisimplePartsDoNotCommute:
        monkeypatch.setattr(nilshadow, "jordan_chevalley",
                            _identity_semisimple)
    with pytest.raises(error) as err:
        validate_split(SplitPresentation(algebra=algebra, nil_ideal=ideal,
                                         complement=complement))
    assert str(err.value) == message


def test_semisimple_parts_that_do_not_commute(monkeypatch):
    # an abelian algebra passes every check before the commutation one; a
    # wrong Jordan-Chevalley split gives the complement e2, e3 the parts
    # E_00 and E_01, which kill the complement but do not commute
    units = iter([Matrix([[1, 0, 0, 0]] + [[0] * 4] * 3),
                  Matrix([[0, 1, 0, 0]] + [[0] * 4] * 3)])

    def wrong_split(m):
        semisimple = next(units)
        return JordanParts(semisimple=semisimple, nilpotent=m - semisimple)
    monkeypatch.setattr(nilshadow, "jordan_chevalley", wrong_split)
    with pytest.raises(SemisimplePartsDoNotCommute) as err:
        validate_split(SplitPresentation(algebra=LieAlgebra(dim=4),
                                         nil_ideal=(0, 1), complement=(2, 3)))
    assert str(err.value) == ("semisimple parts of ad(e2) and ad(e3) do not "
                              "commute")


def test_semisimple_commutation_error_is_exported():
    # once the earlier checks pass, abelian complements have commuting
    # semisimple parts, so the error class exists purely as a guard
    assert issubclass(SemisimplePartsDoNotCommute, ValueError)


def test_transport_frozen_determinants():
    result = _sol3_shadow()
    cases = [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], Fraction(0)),
        ([[1, 0, 0], [5, 2, 0], [-1, 0, 3]], Fraction(0)),
        ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], Fraction(0)),
        ([[-1, 0, 0], [0, 0, 2], [0, 1, 0]], Fraction(-2)),
    ]
    for rows, det in cases:
        t = endomorphism(SOL3.algebra, Matrix(rows))
        report = induced_shadow_map(result, t)
        assert report.det_input == det
        assert report.det_shadow == det  # the benchmark still reads it
        assert report.is_shadow_morphism  # the shadow is abelian


def test_transport_diagonal_and_zero_maps_end_to_end():
    # T = diag(1, k, 1/k) is a morphism ([Te0, Te1] = k e1 = T[e0,e1]) and
    # det(I - T) = (1-1)(1-k)(1-1/k) = 0
    for k in (Fraction(2), Fraction(-3), Fraction(1, 5)):
        t = endomorphism(SOL3.algebra, Matrix.diagonal([1, k, 1 / k]))
        assert _shadow_lefschetz(SOL3_SPLIT, t)[1].lefschetz == 0

    # zero map: only H^0 survives, so the number is 1 = det(I - 0)
    zero = endomorphism(SOL3.algebra, Matrix.zero(3, 3))
    assert _shadow_lefschetz(SOL3_SPLIT, zero)[1].lefschetz == 1


def test_transport_rejects_split_breaking_maps():
    result = _sol3_shadow()
    bad = endomorphism(SOL3.algebra, Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]]))
    with pytest.raises(SplitNotPreserved) as err:
        induced_shadow_map(result, bad)
    assert err.value.index == 1


def test_transport_end_to_end_on_mixed_example():
    # det(I - T) computed on the solvable algebra equals the Lefschetz
    # number of the induced map on the nilpotent shadow
    split = SplitPresentation(algebra=MIXED, nil_ideal=(0, 1, 2),
                              complement=(3,))
    t = endomorphism(MIXED, Matrix.diagonal([2, 3, 6, -1]))
    report, run = _shadow_lefschetz(split, t)
    assert report.det_input == run.lefschetz == -20
    assert run.betti == (1, 3, 4, 3, 1)  # heisenberg3 times a circle


def test_random_diagonal_actions():
    # one complement direction acting with random rational eigenvalues on an
    # abelian ideal: the shadow is abelian and determinants transport for
    # every ideal-preserving triangular T
    rng = random.Random(127)
    for _ in range(10):
        k = rng.choice([2, 3])
        weights = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if all(w == 0 for w in weights):
            weights[0] = Fraction(1)
        brackets = {}
        for i, w in enumerate(weights):
            if w != 0:
                brackets[(i, k)] = {i: -w}
        algebra = LieAlgebra(dim=k + 1, brackets=brackets)
        result = build_shadow(SplitPresentation(
            algebra=algebra, nil_ideal=tuple(range(k)), complement=(k,)))
        assert result.shadow.brackets == {}

        rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = Fraction(rng.randint(-2, 2))
        rows[k][k] = Fraction(rng.randint(-2, 2))
        t = Matrix(rows)
        report = induced_shadow_map(result,
                                    endomorphism(algebra, t))
        assert report.det_input == determinant(Matrix.identity(k + 1) - t)


# ---------------------------------------------------------------------------
# the shadow memo
# ---------------------------------------------------------------------------

def _splits():
    """Every catalog split, MIXED and the Jordan-block example."""
    splits = [SplitPresentation(algebra=get(name).algebra,
                                nil_ideal=get(name).split[0],
                                complement=get(name).split[1])
              for name in list_entries()]
    jordan = LieAlgebra(dim=3, brackets={(0, 2): {0: -1},
                                         (1, 2): {0: -1, 1: -1}})
    return splits + [
        SplitPresentation(algebra=MIXED, nil_ideal=(0, 1, 2), complement=(3,)),
        SplitPresentation(algebra=jordan, nil_ideal=(0, 1), complement=(2,))]


def test_shadow_hit_equals_cold_result():
    cold = []
    for split in _splits():
        nilshadow._shadow.cache_clear()
        cold.append(build_shadow(split))
    warm = [build_shadow(split) for split in _splits()]
    assert warm == cold
    assert [repr(r) for r in warm] == [repr(r) for r in cold]
    for name in list_entries():
        entry = get(name)
        split = SplitPresentation(algebra=entry.algebra,
                                  nil_ideal=entry.split[0],
                                  complement=entry.split[1])
        for t in sample_endomorphisms(entry):
            nilshadow._shadow.cache_clear()
            first = induced_shadow_map(build_shadow(split), t)
            second = induced_shadow_map(build_shadow(split), t)
            assert first == second and repr(first) == repr(second)


def test_shadow_labels_follow_the_algebra():
    named = LieAlgebra(dim=3, brackets=SOL3.algebra.brackets,
                       labels=("t", "x", "y"))
    shadows = [build_shadow(SplitPresentation(algebra=algebra,
                                              nil_ideal=(1, 2),
                                              complement=(0,))).shadow
               for algebra in (SOL3.algebra, named, SOL3.algebra)]
    assert [s.labels for s in shadows] == [("e0", "e1", "e2"),
                                           ("t", "x", "y"),
                                           ("e0", "e1", "e2")]


def test_invalid_split_raises_on_every_call():
    split = SplitPresentation(algebra=SOL3.algebra, nil_ideal=(0, 1),
                              complement=(2,))
    errors = []
    for _ in range(2):
        with pytest.raises(NotAnIdeal) as err:
            build_shadow(split)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert nilshadow._shadow.cache_info().currsize == 0


def test_second_shadow_of_a_split_decomposes_nothing(monkeypatch):
    # A structural guard in place of a timing test: the Jordan-Chevalley
    # split of ad(e0) runs for the first shadow of sol3 and not for a
    # second one from an equal presentation.
    calls = []

    def counting(m):
        calls.append(m)
        return jordan_chevalley(m)

    monkeypatch.setattr(nilshadow, "jordan_chevalley", counting)
    first = _sol3_shadow()
    assert len(calls) == 1
    calls.clear()
    assert _sol3_shadow() == first
    assert calls == []

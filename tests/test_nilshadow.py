"""Nilshadow construction and determinant transport."""

import json
import random
from fractions import Fraction

import pytest

from lietrace import lefschetz, liealg, nilshadow
from lietrace.catalog import get, list_entries, sample_endomorphisms
from lietrace.cli import EXIT_INTERNAL, main
from lietrace.documents import algebra_to_doc
from lietrace.liealg import (LieAlgebra, LieMorphism, ad, endomorphism,
                             is_nilpotent)
from lietrace.nilshadow import (ShadowResult, SplitPresentation,
                                build_shadow, induced_shadow_map,
                                shadow_report, validate_split)
from lietrace.ratlin import (InternalConsistencyFailure, InvalidInput,
                             JordanParts, Matrix, determinant,
                             jordan_chevalley)

from helpers import whole

SOL3 = get("sol3")
HEIS3 = get("heisenberg3").algebra
FILIFORM4 = get("filiform4").algebra

# heisenberg ideal plus one semisimple direction: ad(e3) = diag(1, 1, 2) on
# the ideal (a derivation, since the weights add up across [e0,e1] = e2)
MIXED = LieAlgebra(dim=4, brackets={(0, 1): {2: 1}, (0, 3): {0: -1},
                                    (1, 3): {1: -1}, (2, 3): {2: -2}})
# [e2,e0] = e0, [e2,e1] = e0 + e1: ad(e2) on the ideal (0, 1) is the Jordan
# block [[1,1],[0,1]]
JORDAN = LieAlgebra(dim=3, brackets={(0, 2): {0: -1}, (1, 2): {0: -1, 1: -1}})
MIXED_SPLIT = SplitPresentation(algebra=MIXED, nil_ideal=(0, 1, 2),
                                complement=(3,))
JORDAN_SPLIT = SplitPresentation(algebra=JORDAN, nil_ideal=(0, 1),
                                 complement=(2,))
# a morphism of MIXED whose S is no shadow morphism: S[e1, e3]' = 0, but
# Se1 = 2e0 + e1 - e2 and Se3 = e0 + e3 give [Se1, Se3]' = -e2
MIXED_NOT_SHADOW = [[0, 2, 0, 1], [0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1]]
SOL3_SPLIT = SplitPresentation(algebra=SOL3.algebra, nil_ideal=(1, 2),
                               complement=(0,))
# two complement generators: ad(e0) is a Jordan block on (e2, e3) and
# ad(e1) scales e4, so the shadow keeps [e0,e2]' = e3 and drops [e1,e4]
TWO = LieAlgebra(dim=5, brackets={(0, 2): {2: 1, 3: 1}, (0, 3): {3: 1},
                                  (1, 4): {4: 1}})
TWO_SPLIT = SplitPresentation(algebra=TWO, nil_ideal=(2, 3, 4),
                              complement=(0, 1))


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
    # the shadow keeps exactly [e2,e1]' = e0
    result = build_shadow(SplitPresentation(algebra=JORDAN,
                                            nil_ideal=(0, 1), complement=(2,)))
    assert result.shadow.brackets == {(1, 2): {0: Fraction(-1)}}
    assert result.semisimple_parts == (Matrix.diagonal([1, 1, 0]),)


def test_mixed_shadow_frozen():
    result = build_shadow(SplitPresentation(algebra=MIXED,
                                            nil_ideal=(0, 1, 2),
                                            complement=(3,)))
    assert result.shadow.brackets == {(0, 1): {2: Fraction(1)}}
    assert result.semisimple_parts == (Matrix.diagonal([1, 1, 2, 0]),)


def test_two_generator_complement_frozen(tmp_path, capsys):
    # the complement x complement bracket [e0,e1]' is zero and the two
    # semisimple parts commute; the shadow is heisenberg3 times a 2-torus
    result = build_shadow(TWO_SPLIT)
    assert result.semisimple_parts == (Matrix.diagonal([0, 0, 1, 1, 0]),
                                       Matrix.diagonal([0, 0, 0, 0, 1]))
    assert result.shadow.brackets == {(0, 2): {3: Fraction(1)}}
    assert is_nilpotent(result.shadow)
    t = endomorphism(TWO, Matrix.diagonal([-1, -1, 0, 0, 0]))
    report, run = _shadow_lefschetz(TWO_SPLIT, t)
    assert report.det_input == run.lefschetz == 4
    assert run.betti == (1, 4, 7, 7, 4, 1)
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "algebra": algebra_to_doc(TWO),
        "split": {"nil_ideal": [2, 3, 4], "complement": [0, 1]},
        "map": {"matrix": [[str(x) for x in row]
                           for row in t.matrix.entries]}}))
    assert main(["shadow", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "agree": True, "det_i_minus_t": "4", "is_shadow_morphism": True,
        "shadow": {"basis": ["e0", "e1", "e2", "e3", "e4"],
                   "brackets": [{"left": 0, "right": 2,
                                 "result": {"3": "1"}}],
                   "dim": 5},
        "shadow_lefschetz": "4", "shadow_nilpotent": True}


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
    with pytest.raises(InvalidInput,
                       match=whole("[e2, e0] leaves the span of the ideal")):
        validate_split(SplitPresentation(algebra=SOL3.algebra,
                                         nil_ideal=(0, 1), complement=(2,)))
    # heisenberg3 with complement (0,1): [e0,e1] = e2 != 0
    with pytest.raises(InvalidInput, match=whole("[e0, e1] != 0")):
        validate_split(SplitPresentation(algebra=HEIS3, nil_ideal=(2,),
                                         complement=(0, 1)))
    # the whole of sol3 is an ideal of itself but not nilpotent
    with pytest.raises(InvalidInput,
                       match=whole("marked ideal is not nilpotent")):
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
    (SOL3.algebra, (0, 1), (2,), InvalidInput,
     "[e2, e0] leaves the span of the ideal"),
    (HEIS3, (2,), (0, 1), InvalidInput, "[e0, e1] != 0"),
    # both checks fail ([e0, e2] = e3 in the complement); the ideal's wins
    (FILIFORM4, (1,), (0, 2, 3), InvalidInput,
     "[e0, e1] leaves the span of the ideal"),
    (SOL3.algebra, (1, 2), (0,), InternalConsistencyFailure,
     "semisimple part of ad(e0) does not kill the complement"),
], ids=["not-an-ideal", "complement-not-abelian", "ideal-wins",
        "semisimple-kills-complement"])
def test_validate_split_messages(monkeypatch, algebra, ideal, complement,
                                 error, message):
    if error is InternalConsistencyFailure:
        monkeypatch.setattr(nilshadow, "jordan_chevalley",
                            _identity_semisimple)
    with pytest.raises(error) as err:
        validate_split(SplitPresentation(algebra=algebra, nil_ideal=ideal,
                                         complement=complement))
    assert (err.type, str(err.value)) == (error, message)


def _noncommuting_semisimple():
    """A wrong Jordan-Chevalley split that gives the complement e2, e3 of an
    abelian dim-4 algebra the parts E_00 and E_01, which kill the complement
    but do not commute."""
    units = iter([Matrix([[1, 0, 0, 0]] + [[0] * 4] * 3),
                  Matrix([[0, 1, 0, 0]] + [[0] * 4] * 3)])

    def wrong_split(m):
        semisimple = next(units)
        return JordanParts(semisimple=semisimple, nilpotent=m - semisimple)
    return wrong_split


def test_semisimple_parts_that_do_not_commute(monkeypatch):
    # an abelian algebra passes every check before the commutation one
    monkeypatch.setattr(nilshadow, "jordan_chevalley",
                        _noncommuting_semisimple())
    with pytest.raises(InternalConsistencyFailure) as err:
        validate_split(SplitPresentation(algebra=LieAlgebra(dim=4),
                                         nil_ideal=(0, 1), complement=(2, 3)))
    assert str(err.value) == ("semisimple parts of ad(e2) and ad(e3) do not "
                              "commute")


def _all_nilpotent(m):
    # a wrong split that keeps the whole of ad(a) as its nilpotent part
    return JordanParts(semisimple=Matrix.zero(m.rows, m.cols), nilpotent=m)


def _nilpotent_e02(m):
    # a wrong split whose nilpotent part sends e2 to e0; on MIXED the shadow
    # then has [e2, e3]' = -e0, and [[e0, e1], e3]' = -e0 breaks Jacobi
    nilpotent = Matrix([[0, 0, 1, 0]] + [[0] * 4] * 3)
    return JordanParts(semisimple=m - nilpotent, nilpotent=nilpotent)


def _split_doc(algebra, ideal, complement):
    return {"algebra": algebra_to_doc(algebra),
            "split": {"nil_ideal": list(ideal), "complement": list(complement)}}


@pytest.mark.parametrize("doc, wrong_split, message", [
    ({"algebra": "sol3"}, lambda: _identity_semisimple,
     "semisimple part of ad(e0) does not kill the complement"),
    (_split_doc(LieAlgebra(dim=4), (0, 1), (2, 3)), _noncommuting_semisimple,
     "semisimple parts of ad(e2) and ad(e3) do not commute"),
    ({"algebra": "sol3"}, lambda: _all_nilpotent,
     "shadow bracket failed to be nilpotent"),
    (_split_doc(MIXED, (0, 1, 2), (3,)), lambda: _nilpotent_e02,
     "shadow bracket: Jacobi identity fails on basis triple (0,1,3), "
     "defect (-1, 0, 0, 0)"),
], ids=["kills-complement", "commute", "shadow-nilpotent", "shadow-jacobi"])
def test_shadow_certificates_exit_three(tmp_path, monkeypatch, capsys, doc,
                                        wrong_split, message):
    # each holds by theorem once the split checks pass, so only a library
    # fault, here a wrong Jordan-Chevalley split, can fire it
    monkeypatch.setattr(nilshadow, "jordan_chevalley", wrong_split())
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert main(["shadow", str(path)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"internal consistency failure: {message}\n")


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
    # sol3 morphisms always keep its nilradical, so break the split on an
    # abelian algebra, where every linear map is a morphism
    split = SplitPresentation(algebra=LieAlgebra(dim=2), nil_ideal=(0,),
                              complement=(1,))
    swap = endomorphism(split.algebra, Matrix([[0, 1], [1, 0]]))
    for call in (lambda: shadow_report(split, swap),
                 lambda: induced_shadow_map(build_shadow(split), swap)):
        with pytest.raises(InvalidInput) as err:
            call()
        assert str(err.value) == \
            "map sends ideal basis vector 0 outside the ideal"


@pytest.mark.parametrize("split, diagonal, pair, defect", [
    (MIXED_SPLIT, [2, 3, 6, -1], "(0,3)", "(4, 0, 0, 0)"),
    (JORDAN_SPLIT, [6, 2, 3], "(0,2)", "(-12, 0, 0)"),
    (JORDAN_SPLIT, [2, 2, 3], "(0,2)", "(-4, 0, 0)"),
], ids=["mixed", "jordan-shadow-morphism", "jordan"])
def test_transport_refuses_non_morphisms(split, diagonal, pair, defect):
    # each keeps the ideal, and the first two are shadow morphisms: only
    # the bracket check of T on the split algebra refuses them, and
    # shadow_report runs it before it checks the split
    t = endomorphism(split.algebra, Matrix.diagonal(diagonal))
    message = f"bracket not preserved on basis pair {pair}, defect {defect}"
    with pytest.raises(InvalidInput) as err:
        shadow_report(split, t)
    assert str(err.value) == message
    assert nilshadow.build_shadow.cache_info().misses == 0
    with pytest.raises(InvalidInput) as err:
        induced_shadow_map(build_shadow(split), t)
    assert str(err.value) == message


@pytest.mark.parametrize("t, message", [
    (LieMorphism(source=SOL3.algebra, target=HEIS3, matrix=Matrix.identity(3)),
     "shadow transport needs an endomorphism"),
    (endomorphism(HEIS3, Matrix.identity(3)),
     "endomorphism is not over the split algebra"),
], ids=["not an endomorphism", "other algebra"])
def test_transport_guards(t, message):
    with pytest.raises(InvalidInput) as err:
        induced_shadow_map(_sol3_shadow(), t)
    assert (err.type, str(err.value)) == (InvalidInput, message)


def test_transport_end_to_end_on_mixed_example():
    # det(I - T) computed on the solvable algebra equals the Lefschetz
    # number of the induced map on the nilpotent shadow.  diag(a, b, ab, 1)
    # is a morphism for all a, b; a morphism that is nonzero on the ideal
    # fixes e3 modulo it, so only one that kills the ideal has L != 0
    for diagonal, number in (([2, 3, 6, 1], 0), ([-1, 2, -2, 1], 0),
                             ([0, 0, 0, 3], -2)):
        t = endomorphism(MIXED, Matrix.diagonal(diagonal))
        report, run = _shadow_lefschetz(MIXED_SPLIT, t)
        assert report.det_input == run.lefschetz == number
        assert run.betti == (1, 3, 4, 3, 1)  # heisenberg3 times a circle


def test_random_diagonal_actions():
    # one complement direction acting with random rational eigenvalues on an
    # abelian ideal: the shadow is abelian and determinants transport for
    # every ideal-preserving triangular morphism T.  With T e_k = t e_k, T
    # is a morphism exactly when T_ij (t w_i - w_j) = 0 on the ideal
    rng = random.Random(127)
    dets = set()
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
        rows[k][k] = scale = Fraction(rng.randint(-2, 2))
        for i in range(k):
            for j in range(i, k):
                if scale * weights[i] == weights[j]:
                    rows[i][j] = Fraction(rng.randint(-2, 2))
        t = Matrix(rows)
        report = induced_shadow_map(result,
                                    endomorphism(algebra, t))
        assert report.det_input == determinant(Matrix.identity(k + 1) - t)
        dets.add(report.det_input)
    assert len(dets) > 2


# ---------------------------------------------------------------------------
# the shadow memo
# ---------------------------------------------------------------------------

def _splits():
    """Every catalog split, MIXED and the Jordan-block example."""
    splits = [SplitPresentation(algebra=get(name).algebra,
                                nil_ideal=get(name).split[0],
                                complement=get(name).split[1])
              for name in list_entries()]
    return splits + [
        SplitPresentation(algebra=MIXED, nil_ideal=(0, 1, 2), complement=(3,)),
        SplitPresentation(algebra=JORDAN, nil_ideal=(0, 1), complement=(2,))]


def test_shadow_hit_equals_cold_result():
    cold = []
    for split in _splits():
        nilshadow.build_shadow.cache_clear()
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
            nilshadow.build_shadow.cache_clear()
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
        with pytest.raises(InvalidInput, match=whole(
                "[e2, e0] leaves the span of the ideal")) as err:
            build_shadow(split)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert nilshadow.build_shadow.cache_info().currsize == 0


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


# ---------------------------------------------------------------------------
# one solvmanifold report
# ---------------------------------------------------------------------------

def test_shadow_report_checks_the_map_once_and_takes_one_determinant(
        monkeypatch):
    # counted at every site where nilshadow, liealg and lefschetz look the
    # two up: is_morphism reads liealg's check_morphism.  One morphism check
    # is of T on the split algebra, the other of S on the shadow
    calls = {"check_morphism": 0, "det_i_minus": 0}
    for name in calls:
        for module in (nilshadow, liealg, lefschetz):
            if hasattr(module, name):
                def counting(*args, _name=name,
                             _original=getattr(module, name)):
                    calls[_name] += 1
                    return _original(*args)
                monkeypatch.setattr(module, name, counting)
    t = endomorphism(SOL3.algebra, Matrix([[-1, 0, 0], [0, 0, 2], [0, 1, 0]]))
    _, report, run = shadow_report(SOL3_SPLIT, t)
    assert report.det_input == run.lefschetz == -2
    assert calls == {"check_morphism": 2, "det_i_minus": 1}


def test_cold_shadow_report_validates_each_algebra_once(monkeypatch):
    # sol3 and its shadow are each checked for Jacobi once, and the marked
    # ideal and the shadow each decided nilpotent once: the shadow's
    # certificates and its Lefschetz report read one coefficient system.
    # Counted at every site where nilshadow, liealg and lefschetz look the
    # two up
    calls = {"validate": 0, "is_nilpotent": 0}
    for name in calls:
        for module in (nilshadow, liealg, lefschetz):
            def counting(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counting)
    t = endomorphism(SOL3.algebra, Matrix([[-1, 0, 0], [0, 0, 2], [0, 1, 0]]))
    _, report, run = shadow_report(SOL3_SPLIT, t)
    assert report.det_input == run.lefschetz == -2
    assert calls == {"validate": 2, "is_nilpotent": 2}


def test_shadow_report_map_report_equals_induced_shadow_map():
    # every catalog split with its sample maps, and morphisms of MIXED and
    # of the Jordan-block example, MIXED_NOT_SHADOW of which is not a
    # shadow morphism
    splits = _splits()
    cases = [(split, t) for name, split in zip(list_entries(), splits)
             for t in sample_endomorphisms(get(name))]
    cases += [(MIXED_SPLIT, endomorphism(MIXED, m))
              for m in (MIXED_NOT_SHADOW, Matrix.diagonal([2, 3, 6, 1]))]
    cases += [(JORDAN_SPLIT, endomorphism(JORDAN, m))
              for m in ([[2, 1, 0], [0, 2, 0], [0, 0, 1]],
                        Matrix.diagonal([0, 0, 3]))]
    kinds = set()
    for split, t in cases:
        _, report, run = shadow_report(split, t)
        expected = induced_shadow_map(build_shadow(split), t)
        assert report == expected and repr(report) == repr(expected)
        assert (run is None) is not report.is_shadow_morphism
        kinds.add(report.is_shadow_morphism)
    assert kinds == {True, False}

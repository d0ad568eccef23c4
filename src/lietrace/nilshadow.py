"""Nilshadow of a split solvable Lie algebra.

Input: a solvable algebra presented as a nilpotent ideal (spanned by a set
of basis indices, containing all brackets) plus an abelian complement.  The
shadow carries the same underlying space with the modified bracket

    [a1 + n1, a2 + n2]' = [n1, n2] + nil(ad a1)(n2) - nil(ad a2)(n1)

where nil(-) is the nilpotent part of the additive Jordan-Chevalley
decomposition.  Discarding the commuting semisimple parts of the complement
action is exactly what makes the result nilpotent while keeping det(I - T)
unchanged for every Lie morphism T that keeps the ideal: the induced map on
the shadow is T itself under the identity identification of underlying
spaces, so det(I - T) is one number on both sides.

build_shadow caches its result per split, an immutable value, for the
MEMO_SIZE most recently used ones, so the split checks, the Jordan-Chevalley
decompositions and the shadow's Jacobi and nilpotency certificates, read off
the coefficient system a report on the shadow then reuses, run once per
split.  shadow_report is the whole solvmanifold report: T is checked first,
then one twisted_lefschetz checks S and gives det(I - T).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .lefschetz import coefficient_system, twisted_lefschetz
from .liealg import (JacobiViolation, LieAlgebra, LieMorphism, NotAMorphism,
                     check_morphism, endomorphism, is_morphism, is_nilpotent,
                     is_solvable, validate)
from .ratlin import (MEMO_SIZE, InternalConsistencyFailure, InvalidInput,
                     Record, det_i_minus, jordan_chevalley, p_subsets,
                     vanishes)
from .repn import identity_intertwiner, trivial_module


class SplitPresentation(Record):
    """Solvable algebra with marked nilpotent ideal and abelian complement.

    nil_ideal and complement are disjoint sorted index tuples covering all
    basis indices.  An empty complement (nilpotent input) is allowed and
    makes the shadow construction the identity.
    """
    algebra: LieAlgebra
    nil_ideal: tuple
    complement: tuple

    def __post_init__(self):
        object.__setattr__(self, "nil_ideal", tuple(sorted(self.nil_ideal)))
        object.__setattr__(self, "complement", tuple(sorted(self.complement)))
        n = self.algebra.dim
        combined = sorted(self.nil_ideal + self.complement)
        if combined != list(range(n)):
            raise InvalidInput("nil_ideal and complement must partition the basis indices")


def validate_split(split: SplitPresentation) -> tuple:
    """All structural preconditions, in a fixed order so failures are stable:
    solvability, ideal property, abelian complement, nilpotency of the ideal.
    Then certificates: the semisimple parts, polynomials in the commuting
    ad(e_c) with no constant term, commute and kill the abelian complement.

    Returns the Jordan-Chevalley parts (JordanParts) of ad(e_c) for each
    complement generator c, in complement order.
    """
    algebra = split.algebra
    validate(algebra)
    if not is_solvable(algebra):
        raise InvalidInput("algebra is not solvable")
    ideal = set(split.nil_ideal)

    for i in range(algebra.dim):
        for j in split.nil_ideal:
            comps = algebra.brackets.get((min(i, j), max(i, j)), {})
            if any(k not in ideal for k in comps):
                raise InvalidInput(f"[e{i}, e{j}] leaves the span of the ideal")

    for a in split.complement:
        for b in split.complement:
            if a < b and (a, b) in algebra.brackets:
                raise InvalidInput(f"[e{a}, e{b}] != 0")

    # brackets of complement vectors vanish and brackets touching the ideal
    # land in it, so [g, g] is inside the ideal once the two checks above
    # pass; restricting to the ideal therefore yields a genuine subalgebra.
    if split.nil_ideal and not is_nilpotent(_restrict_to_ideal(split)):
        raise InvalidInput("marked ideal is not nilpotent")

    ads = algebra.basis_ads
    parts = tuple(jordan_chevalley(ads[c]) for c in split.complement)
    semis = [p.semisimple for p in parts]
    for idx, s in zip(split.complement, semis):
        columns = s.transpose().sparse
        if any(columns[c] for c in split.complement):
            raise InternalConsistencyFailure(
                f"semisimple part of ad(e{idx}) does not kill the complement")
    for x, y in p_subsets(len(semis), 2):
        if not vanishes([(1, semis[x], semis[y]), (-1, semis[y], semis[x])]):
            raise InternalConsistencyFailure(
                f"semisimple parts of ad(e{split.complement[x]}) and "
                f"ad(e{split.complement[y]}) do not commute")
    return parts


def _restrict_to_ideal(split: SplitPresentation) -> LieAlgebra:
    """Subalgebra on the ideal indices (valid once ideal-ness is known)."""
    pos = {idx: a for a, idx in enumerate(split.nil_ideal)}
    sub = {}
    for (i, j), comps in split.algebra.brackets.items():
        if i in pos and j in pos:
            sub[(pos[i], pos[j])] = {pos[k]: c for k, c in comps.items()}
    return LieAlgebra(dim=len(split.nil_ideal), brackets=sub)


class ShadowResult(Record):
    split: SplitPresentation
    shadow: LieAlgebra
    semisimple_parts: tuple   # one matrix per complement generator


@lru_cache(maxsize=MEMO_SIZE)
def build_shadow(split: SplitPresentation) -> ShadowResult:
    """Replace each complement action by its nilpotent part.

    The shadow bracket keeps ideal x ideal brackets, sets complement pairs to
    zero, and lets a complement generator act on the ideal through
    nil(ad a) = ad a - semisimple(ad a).  Its Jacobi identity and nilpotency
    hold by theorem, so they are certified, read off the coefficient system
    of the shadow with the trivial module.  Built on first use of the split.
    """
    parts = validate_split(split)
    algebra = split.algebra
    n = algebra.dim
    ideal = set(split.nil_ideal)
    nil_columns = {c: [[(r, Fraction(x, p.nilpotent.den)) for r, x in column]
                       for column in p.nilpotent.transpose().sparse]
                   for c, p in zip(split.complement, parts)}

    brackets = {}   # LieAlgebra drops the empty entries
    for i in range(n):
        for j in range(i + 1, n):
            if i in ideal and j in ideal:
                column = sorted(algebra.brackets.get((i, j), {}).items())
            elif i in ideal:          # j in complement: [n, a] = -nil(ad a)(n)
                column = [(r, -x) for r, x in nil_columns[j][i]]
            elif j in ideal:          # i in complement: [a, n] = nil(ad a)(n)
                column = nil_columns[i][j]
            else:                     # complement x complement: zero
                continue
            brackets[(i, j)] = dict(column)
    shadow = LieAlgebra(dim=n, brackets=brackets, labels=algebra.labels)
    try:
        system = coefficient_system(shadow, trivial_module(shadow))
    except JacobiViolation as err:
        raise InternalConsistencyFailure(f"shadow bracket: {err}") from err
    if not system.nilpotent:
        raise InternalConsistencyFailure("shadow bracket failed to be nilpotent")
    return ShadowResult(split=split, shadow=shadow,
                        semisimple_parts=tuple(p.semisimple for p in parts))


class ShadowMapReport(Record):
    shadow_map: LieMorphism       # endomorphism of the shadow algebra
    is_shadow_morphism: bool
    det_input: Fraction           # det(I - T) = det(I - S), as S is T

    @property
    def det_shadow(self) -> Fraction:
        """det_input, kept for perfbench/workloads.shadow_case, its reader."""
        return self.det_input


def _check_map(split: SplitPresentation, t: LieMorphism) -> None:
    """T must be a Lie endomorphism of the split algebra keeping the ideal."""
    if t.source is not t.target and t.source != t.target:
        raise InvalidInput("shadow transport needs an endomorphism")
    if t.source != split.algebra:
        raise InvalidInput("endomorphism is not over the split algebra")
    check_morphism(t)
    ideal = set(split.nil_ideal)
    columns = t.matrix.transpose().sparse
    for j in split.nil_ideal:
        if any(r not in ideal for r, _ in columns[j]):
            raise InvalidInput(
                f"map sends ideal basis vector {j} outside the ideal")


def induced_shadow_map(result: ShadowResult, t: LieMorphism) -> ShadowMapReport:
    """Carry a Lie endomorphism T of the split algebra over to the shadow.

    T must map the ideal into itself; the induced map S is T under the
    identity identification of underlying spaces, so det(I - S) = det(I - T)
    by construction.  Whether S also respects the shadow bracket is
    reported, not assumed: the Lefschetz pipeline on the shadow only makes
    sense when it does.
    """
    _check_map(result.split, t)
    shadow_map = endomorphism(result.shadow, t.matrix)
    return ShadowMapReport(shadow_map=shadow_map,
                           is_shadow_morphism=is_morphism(shadow_map),
                           det_input=det_i_minus(t.matrix))


def shadow_report(split: SplitPresentation, t: LieMorphism) -> tuple:
    """(shadow, map report, Lefschetz report): the shadow of the split, T
    carried over to it, and the twisted Lefschetz report of S on the shadow
    with the trivial module and the identity intertwiner, or None when S is
    not a shadow morphism.  T is checked before the shadow is built.  The
    map report is read off the Lefschetz report's check and det(I - A)."""
    _check_map(split, t)
    result = build_shadow(split)
    s = endomorphism(result.shadow, t.matrix)
    module = trivial_module(result.shadow)
    try:
        lef = twisted_lefschetz(result.shadow, module, s,
                                identity_intertwiner(s, module))
    except NotAMorphism:
        return result, ShadowMapReport(s, False, det_i_minus(t.matrix)), None
    return result, ShadowMapReport(s, True, lef.det_i_minus_a), lef

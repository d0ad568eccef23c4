"""Nilshadow of a split solvable Lie algebra.

Input: a solvable algebra presented as a nilpotent ideal (spanned by a set
of basis indices, containing all brackets) plus an abelian complement.  The
shadow carries the same underlying space with the modified bracket

    [a1 + n1, a2 + n2]' = [n1, n2] + nil(ad a1)(n2) - nil(ad a2)(n1)

where nil(-) is the nilpotent part of the additive Jordan-Chevalley
decomposition.  Discarding the commuting semisimple parts of the complement
action is exactly what makes the result nilpotent while keeping every
determinant of the form det(I - T) unchanged for split-compatible maps T:
the induced map on the shadow is T itself under the identity identification
of underlying spaces, so det(I - T) is one number on both sides.

build_shadow caches the shadow and the semisimple parts per split, an
immutable value, for the MEMO_SIZE most recently used ones, so the split
checks, the Jordan-Chevalley decompositions and the shadow's Jacobi and
nilpotency checks run once per split; induced_shadow_map checks every map.
shadow_report is the whole solvmanifold report in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .liealg import (MEMO_SIZE, LieAlgebra, LieMorphism, endomorphism,
                     is_morphism, is_nilpotent, is_solvable, validate)
from .ratlin import InvalidInput, det_i_minus, jordan_chevalley, vanishes


class NotAnIdeal(InvalidInput):
    pass


class IdealNotNilpotent(InvalidInput):
    pass


class ComplementNotAbelian(InvalidInput):
    pass


class SemisimplePartsDoNotCommute(InvalidInput):
    pass


class SplitNotPreserved(InvalidInput):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"map sends ideal basis vector {index} outside the ideal")


@dataclass(frozen=True)
class SplitPresentation:
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
    solvability, ideal property, abelian complement, nilpotency of the ideal,
    commuting semisimple parts that kill the complement.

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
                raise NotAnIdeal(f"[e{i}, e{j}] leaves the span of the ideal")

    for a in split.complement:
        for b in split.complement:
            if a < b and (a, b) in algebra.brackets:
                raise ComplementNotAbelian(f"[e{a}, e{b}] != 0")

    # brackets of complement vectors vanish and brackets touching the ideal
    # land in it, so [g, g] is inside the ideal once the two checks above
    # pass; restricting to the ideal therefore yields a genuine subalgebra.
    if split.nil_ideal and not is_nilpotent(_restrict_to_ideal(split)):
        raise IdealNotNilpotent("marked ideal is not nilpotent")

    ads = algebra.basis_ads
    parts = tuple(jordan_chevalley(ads[c]) for c in split.complement)
    semis = [p.semisimple for p in parts]
    for idx, s in zip(split.complement, semis):
        columns = s.transpose().sparse
        if any(columns[c] for c in split.complement):
            raise SemisimplePartsDoNotCommute(
                f"semisimple part of ad(e{idx}) does not kill the complement")
    for x in range(len(semis)):
        for y in range(x + 1, len(semis)):
            if not vanishes([(1, semis[x], semis[y]),
                             (-1, semis[y], semis[x])]):
                raise SemisimplePartsDoNotCommute(
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


@dataclass(frozen=True)
class ShadowResult:
    split: SplitPresentation
    shadow: LieAlgebra
    semisimple_parts: tuple   # one matrix per complement generator


def build_shadow(split: SplitPresentation) -> ShadowResult:
    """Replace each complement action by its nilpotent part.

    The shadow bracket keeps ideal x ideal brackets, sets complement pairs to
    zero, and lets a complement generator act on the ideal through
    nil(ad a) = ad a - semisimple(ad a).  The result is validated (Jacobi)
    and must be nilpotent.  Built on the first call for the split's value.
    """
    shadow, semisimple_parts = _shadow(split)
    return ShadowResult(split=split, shadow=shadow,
                        semisimple_parts=semisimple_parts)


@lru_cache(maxsize=MEMO_SIZE)
def _shadow(split: SplitPresentation) -> tuple:
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
    validate(shadow)
    if not is_nilpotent(shadow):
        raise IdealNotNilpotent("shadow bracket failed to be nilpotent")
    return shadow, tuple(p.semisimple for p in parts)


@dataclass(frozen=True)
class ShadowMapReport:
    shadow_map: LieMorphism       # endomorphism of the shadow algebra
    is_shadow_morphism: bool
    det_input: Fraction           # det(I - T) = det(I - S), as S is T

    @property
    def det_shadow(self) -> Fraction:
        """det_input, kept for perfbench/workloads.shadow_case, its reader."""
        return self.det_input


def induced_shadow_map(result: ShadowResult, t: LieMorphism) -> ShadowMapReport:
    """Carry an endomorphism T of the split algebra over to the shadow.

    T must map the ideal into itself; the induced map S is T under the
    identity identification of underlying spaces, so det(I - S) = det(I - T)
    by construction.  Whether S also respects the shadow bracket is
    reported, not assumed: the Lefschetz pipeline on the shadow only makes
    sense when it does.
    """
    split = result.split
    if t.source is not t.target and t.source != t.target:
        raise InvalidInput("shadow transport needs an endomorphism")
    if t.source != split.algebra:
        raise InvalidInput("endomorphism is not over the split algebra")
    ideal = set(split.nil_ideal)
    columns = t.matrix.transpose().sparse
    for j in split.nil_ideal:
        if any(r not in ideal for r, _ in columns[j]):
            raise SplitNotPreserved(j)

    shadow_map = endomorphism(result.shadow, t.matrix)
    return ShadowMapReport(shadow_map=shadow_map,
                           is_shadow_morphism=is_morphism(shadow_map),
                           det_input=det_i_minus(t.matrix))


def shadow_report(split: SplitPresentation, t: LieMorphism) -> tuple:
    """(shadow, map report, Lefschetz report): the shadow of the split, T
    carried over to it, and the twisted Lefschetz report of S on the shadow
    with the trivial module and the identity intertwiner, or None when S is
    not a shadow morphism."""
    from .lefschetz import twisted_lefschetz
    from .repn import identity_intertwiner, trivial_module

    result = build_shadow(split)
    map_report = induced_shadow_map(result, t)
    if not map_report.is_shadow_morphism:
        return result, map_report, None
    s, module = map_report.shadow_map, trivial_module(result.shadow)
    return result, map_report, twisted_lefschetz(
        result.shadow, module, s, identity_intertwiner(s, module))

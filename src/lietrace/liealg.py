"""Finite-dimensional Lie algebras over Q, given by structure constants.

A bracket table stores [e_i, e_j] for i < j only; antisymmetry holds by
construction and Jacobi is checked explicitly.  Every bracket is read through
ad(x), built in one pass over the structure constants: bracket(x, y) is
ad(x) applied to y, Jacobi defects and the series apply ad of basis vectors.
Subspaces (for the lower central and derived series) are handled as row
spaces in reduced echelon form, so all reported dimensions and bases are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ratlin import (InvalidInput, Matrix, Vector, as_fraction,
                     format_rational, is_zero_vec, packed_row, rref, zero_vec)


class JacobiViolation(InvalidInput):
    def __init__(self, i: int, j: int, k: int, defect: Vector):
        self.triple = (i, j, k)
        self.defect = defect
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{k}), "
                         f"defect {_fmt_vec(defect)}")


class NotAMorphism(InvalidInput):
    def __init__(self, i: int, j: int, defect: Vector):
        self.pair = (i, j)
        self.defect = defect
        super().__init__(f"bracket not preserved on basis pair ({i},{j}), "
                         f"defect {_fmt_vec(defect)}")


def _fmt_vec(v: Vector) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant presentation.

    brackets maps (i, j) with i < j to a sparse dict {k: coefficient} giving
    [e_i, e_j] = sum_k c_k e_k.  Zero brackets are simply absent.
    """
    dim: int
    brackets: dict = field(default_factory=dict)
    labels: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dimension must be at least 1")
        clean = {}
        for (i, j), comps in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise InvalidInput(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            entry = {k: as_fraction(c) for k, c in comps.items()
                     if as_fraction(c) != 0}
            for k in entry:
                if not 0 <= k < self.dim:
                    raise InvalidInput(f"bracket result index {k} out of range")
            if entry:
                clean[(i, j)] = entry
        object.__setattr__(self, "brackets", clean)
        labels = self.labels or tuple(f"e{i}" for i in range(self.dim))
        if len(labels) != self.dim:
            raise InvalidInput("labels length must equal dim")
        object.__setattr__(self, "labels", tuple(labels))

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.brackets == other.brackets)

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector, any i, j."""
        if i == j:
            return zero_vec(self.dim)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out = [Fraction(0)] * self.dim
        for k, c in self.brackets.get((i, j), {}).items():
            out[k] = sign * c
        return tuple(out)


def validate(algebra: LieAlgebra) -> None:
    """Check the Jacobi identity on all basis triples i < j < k.

    The defect reported is [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j],
    computed as -(ad e_k [e_i,e_j] + ad e_i [e_j,e_k] + ad e_j [e_k,e_i]).
    """
    n = algebra.dim
    ads = [ad(algebra, e) for e in Matrix.identity(n).entries]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = zip(ads[k].apply(algebra.basis_bracket(i, j)),
                            ads[i].apply(algebra.basis_bracket(j, k)),
                            ads[j].apply(algebra.basis_bracket(k, i)))
                defect = tuple(-(a + b + c) for a, b, c in terms)
                if not is_zero_vec(defect):
                    raise JacobiViolation(i, j, k, defect)


def bracket(algebra: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants: ad(x) applied to y."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ValueError(f"bracket of vectors of length {len(x)} and "
                         f"{len(y)} in an algebra of dim {n}")
    return ad(algebra, x).apply(y)


def ad(algebra: LieAlgebra, x: Vector) -> Matrix:
    """Adjoint operator ad(x) = [x, -]; column j is [x, e_j].

    One pass over the structure constants: c_k e_k in [e_i, e_j] puts
    x_i c_k at (k, j) and -x_j c_k at (k, i).
    """
    n = algebra.dim
    if len(x) != n:
        raise ValueError(f"ad of a vector of length {len(x)} in an algebra "
                         f"of dim {n}")
    rows = [{} for _ in range(n)]
    for (i, j), comps in algebra.brackets.items():
        xi, xj = x[i], x[j]
        for k, c in comps.items():
            if xi:
                rows[k][j] = rows[k].get(j, 0) + xi * c
            if xj:
                rows[k][i] = rows[k].get(i, 0) - xj * c
    return Matrix._of(tuple(packed_row(row) for row in rows), n)


# ---------------------------------------------------------------------------
# subspaces and series
# ---------------------------------------------------------------------------

def _span_basis(vectors: list[Vector]) -> list[Vector]:
    """Canonical basis (nonzero rref rows) of the span of the given vectors."""
    if not vectors:
        return []
    reduced, _, r = rref(Matrix(vectors))
    return [reduced.row(i) for i in range(r)]


def _bracket_span(algebra: LieAlgebra, us: list[Vector], vs: list[Vector]) -> list[Vector]:
    """Span of [u, v] over u in us, v in vs, with one ad per u."""
    ads = [ad(algebra, u) for u in us]
    return _span_basis([a.apply(v) for a in ads for v in vs])


@dataclass(frozen=True)
class SeriesReport:
    kind: str           # "lower_central" or "derived"
    dims: tuple         # starts at dim; repeats its final value once unless 0
    terminates_at_zero: bool


def series(algebra: LieAlgebra, kind: str) -> SeriesReport:
    """Lower central series g, [g,g], [g,[g,g]], ... or derived series
    g, [g,g], [[g,g],[g,g]], ...  Dimensions are computed until they hit zero
    or stabilize (the first repeated value is included to show stabilization).
    """
    if kind not in ("lower_central", "derived"):
        raise ValueError(f"unknown series kind {kind!r}")
    full = list(Matrix.identity(algebra.dim).entries)
    current = full
    dims = [algebra.dim]
    while True:
        if kind == "lower_central":
            nxt = _bracket_span(algebra, full, current)
        else:
            nxt = _bracket_span(algebra, current, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            break
        current = nxt
    return SeriesReport(kind=kind, dims=tuple(dims),
                        terminates_at_zero=dims[-1] == 0)


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return series(algebra, "lower_central").terminates_at_zero


def is_solvable(algebra: LieAlgebra) -> bool:
    return series(algebra, "derived").terminates_at_zero


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieMorphism:
    """Linear map source -> target; column j of matrix is the image of e_j."""
    source: LieAlgebra
    target: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise InvalidInput(f"matrix shape {self.matrix.rows}x{self.matrix.cols} "
                               f"does not map dim {self.source.dim} into dim {self.target.dim}")


def endomorphism(algebra: LieAlgebra, matrix) -> LieMorphism:
    m = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
    return LieMorphism(source=algebra, target=algebra, matrix=m)


def check_morphism(f: LieMorphism) -> None:
    """Verify f[e_i, e_j] = [f e_i, f e_j] on all basis pairs.

    The defect reported is [f e_i, f e_j] - f([e_i, e_j]).
    """
    src, tgt, m = f.source, f.target, f.matrix
    images = m.columns()
    for i in range(src.dim - 1):
        ad_image = ad(tgt, images[i])
        for j in range(i + 1, src.dim):
            lhs = ad_image.apply(images[j])
            rhs = m.apply(src.basis_bracket(i, j))
            defect = tuple(a - b for a, b in zip(lhs, rhs))
            if not is_zero_vec(defect):
                raise NotAMorphism(i, j, defect)


def is_morphism(f: LieMorphism) -> bool:
    try:
        check_morphism(f)
        return True
    except NotAMorphism:
        return False

"""Finite-dimensional Lie algebras over Q, given by structure constants.

A bracket table stores [e_i, e_j] for i < j only; antisymmetry holds by
construction.  A LieAlgebra is an immutable, hashable value: its brackets
are read-only mappings, equality and the hash cover dim, brackets and
labels, and lefschetz and nilshadow cache by it with functools.lru_cache.
basis_ads, the ad of every basis vector and the adjoint module's actions,
is built once per algebra in one pass over the structure constants; ad(x)
combines them over the coordinates of x, and bracket(x, y) is ad(x)
applied to y.
Every bracket check is a matrix identity, a sum of c * a * b that one
kernel, ratlin.vanishes, checks row by row, stopping at the first nonzero
row, without building the products: bracket_terms gives
rho([e_i, e_j]) - [rho(e_i), rho(e_j)] for any action matrices, Jacobi is
that identity for the basis ads, and a morphism f satisfies
ad(f e_i) f = f ad(e_i).  A failed check names its defect from the very
terms it checked (_defect), and one with no defect is a library bug.
The series are sparse reduced row spaces.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .ratlin import (InternalConsistencyFailure, InvalidInput, Matrix,
                     Record, Vector, _over_lcm, as_fraction, format_vector,
                     linear_combination, p_subsets, packed_row, rref,
                     vanishes)


class JacobiViolation(InvalidInput):
    def __init__(self, i: int, j: int, k: int, defect: Vector):
        self.triple = (i, j, k)
        self.defect = defect
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{k}), "
                         f"defect {format_vector(defect)}")


class NotAMorphism(InvalidInput):
    def __init__(self, i: int, j: int, defect: Vector):
        self.pair = (i, j)
        self.defect = defect
        super().__init__(f"bracket not preserved on basis pair ({i},{j}), "
                         f"defect {format_vector(defect)}")


class LieAlgebra(Record):
    """Structure-constant presentation.

    brackets maps (i, j) with i < j to a sparse mapping {k: coefficient}
    giving [e_i, e_j] = sum_k c_k e_k.  Zero brackets are simply absent.
    Both levels are stored read-only.
    """
    dim: int
    brackets: dict = MappingProxyType({})
    labels: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dimension must be at least 1")
        clean = {}
        for (i, j), comps in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise InvalidInput(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            entry = {k: x for k, c in comps.items() if (x := as_fraction(c))}
            for k in entry:
                if not 0 <= k < self.dim:
                    raise InvalidInput(f"bracket result index {k} out of range")
            if entry:
                clean[(i, j)] = MappingProxyType(entry)
        object.__setattr__(self, "brackets", MappingProxyType(clean))
        labels = self.labels or tuple(f"e{i}" for i in range(self.dim))
        if len(labels) != self.dim:
            raise InvalidInput("labels length must equal dim")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_hash", hash((self.dim, frozenset(
            (pair, frozenset(comps.items())) for pair, comps in clean.items()))))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        """The constructor call, brackets written as plain dicts."""
        brackets = {pair: dict(comps) for pair, comps in self.brackets.items()}
        return (f"LieAlgebra(dim={self.dim!r}, brackets={brackets!r}, "
                f"labels={self.labels!r})")

    @cached_property
    def basis_ads(self) -> tuple:
        """ad(e_0), ..., ad(e_{n-1}), the adjoint module's action matrices,
        in one pass over the structure constants: c_k e_k in [e_i, e_j] is
        c_k at (k, j) in ad(e_i) and -c_k at (k, i) in ad(e_j)."""
        n = self.dim
        brackets, den = integer_brackets(self)
        rows = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                rows[i][k][j], rows[j][k][i] = c, -c
        return tuple(Matrix._of(tuple(map(packed_row, ad_rows)), n, den)
                     for ad_rows in rows)


def validate(algebra: LieAlgebra) -> None:
    """Check the Jacobi identity on all basis triples i < j < k.

    Jacobi says that ad is a representation: bracket_terms on the basis
    ads, pair by pair.  Where they do not vanish, column k > j of their sum
    is the defect [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j];
    triples are visited in lexicographic order.
    """
    ads = algebra.basis_ads
    for i, j in p_subsets(algebra.dim - 1, 2):
        terms = bracket_terms(algebra, ads, i, j)
        if not vanishes(terms):
            raise JacobiViolation(i, j, *_defect(terms, j))


def bracket_terms(algebra: LieAlgebra, actions: tuple, i: int,
                  j: int) -> list:
    """The ratlin.vanishes terms of rho([e_i, e_j]) - [rho(e_i), rho(e_j)]
    for the action matrices rho(e_k) in `actions`: c rho(e_k) over the
    structure constants of (i, j), then -rho(e_i) rho(e_j) and
    rho(e_j) rho(e_i)."""
    return ([(c, actions[k], None)
             for k, c in algebra.brackets.get((i, j), {}).items()]
            + [(-1, actions[i], actions[j]), (1, actions[j], actions[i])])


def _defect(terms: list, after: int, den: int = 1) -> tuple[int, Vector]:
    """(k, column k): the first nonzero column k > after of the sum of
    c * a * b / den over the ratlin.vanishes `terms` of a failed check.
    Earlier columns repeat a basis tuple checked before or vanish by
    antisymmetry, so where there is none the library is wrong."""
    total = linear_combination(
        [(t, c) for t, (c, _, _) in enumerate(terms)],
        [a if b is None else a * b for _, a, b in terms], den).transpose()
    for k in range(after + 1, total.rows):
        if total.sparse[k]:
            return k, total.row(k)
    raise InternalConsistencyFailure(
        f"a failed bracket check has no nonzero column past {after}")


def integer_brackets(algebra: LieAlgebra) -> tuple[dict, int]:
    """(brackets, den): the structure constants as integers over the lcm
    of their denominators, keyed as in algebra.brackets."""
    rows, den = _over_lcm([comps.items()
                           for comps in algebra.brackets.values()])
    return dict(zip(algebra.brackets, map(dict, rows))), den


def bracket(algebra: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants: ad(x) applied to y."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ValueError(f"bracket of vectors of length {len(x)} and "
                         f"{len(y)} in an algebra of dim {n}")
    return ad(algebra, x).apply(y)


def ad(algebra: LieAlgebra, x: Vector) -> Matrix:
    """Adjoint operator ad(x) = [x, -]; column j is [x, e_j].  It is the
    sum of x_a ad(e_a) over the nonzero coordinates x_a of x."""
    n = algebra.dim
    if len(x) != n:
        raise ValueError(f"ad of a vector of length {len(x)} in an algebra "
                         f"of dim {n}")
    return linear_combination([(a, c) for a, c in enumerate(x) if c],
                              algebra.basis_ads)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

class SeriesReport(Record):
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
    # the rows of `current` span the current term; the next is spanned by
    # ad(u) v over v in it and u in g (lower central) or in it (derived),
    # the rows of current * ad(u)^T.  Only spans matter, so each product's
    # integer rows stand for its rows and the reduced rows for the term.
    n = algebra.dim
    basis = ads = algebra.basis_ads
    current, dims = Matrix.identity(n), [n]
    while True:
        products = tuple(row for a in ads
                         for row in (current * a.transpose()).sparse)
        reduced, _, rank = rref(Matrix._of(products, n))
        dims.append(rank)
        if rank == 0 or rank == current.rows:
            break
        current = Matrix._of(reduced.sparse[:rank], n)
        if kind == "derived":
            ads = [linear_combination(u, basis) for u in current.sparse]
    return SeriesReport(kind=kind, dims=tuple(dims),
                        terminates_at_zero=dims[-1] == 0)


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return series(algebra, "lower_central").terminates_at_zero


def is_solvable(algebra: LieAlgebra) -> bool:
    return series(algebra, "derived").terminates_at_zero


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class LieMorphism(Record):
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

    For each i, ad(f e_i) f - f ad(e_i) must vanish; times den, the
    denominator of f, that is the terms c ad(e_k) f over the integers c of
    column i of f, and -den f ad(e_i).  Where it does not, column j > i of
    their sum over den is the defect [f e_i, f e_j] - f[e_i, e_j].
    """
    m = f.matrix
    src_ads, tgt_ads = f.source.basis_ads, f.target.basis_ads
    for i, column in enumerate(m.transpose().sparse[:-1]):
        terms = ([(c, tgt_ads[k], m) for k, c in column]
                 + [(-m.den, m, src_ads[i])])
        if not vanishes(terms):
            raise NotAMorphism(i, *_defect(terms, i, m.den))


def is_morphism(f: LieMorphism) -> bool:
    try:
        check_morphism(f)
        return True
    except NotAMorphism:
        return False

"""Fixed points of integer self-maps of the torus R^n / Z^n.

Independent cross-check for the determinant formula: a map with integer
matrix A has x fixed iff (A - I) x is integral, so when det(A - I) != 0 the
fixed points are the points (A - I)^(-1) k that land in [0,1)^n.  They are
counted two ways — |det(A - I)| and explicit enumeration — and a mismatch
raises InternalConsistencyFailure.  All candidates x = adj(A - I) k / det(A - I)
are handled in integer arithmetic, so membership in [0,1)^n is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cecomplex import InternalConsistencyFailure
from .ratlin import Matrix, determinant, inverse


class DegenerateMap(ValueError):
    """det(A - I) = 0: the fixed point set is not finite."""


class NotInteger(ValueError):
    pass


@dataclass(frozen=True)
class TorusMap:
    """Integer matrix acting on the standard torus."""
    matrix: tuple  # tuple of tuples of int

    def __post_init__(self):
        rows = tuple(tuple(x for x in row) for row in self.matrix)
        for row in rows:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise NotInteger(f"entry {x!r} is not an integer")
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class FixedPointReport:
    count: int                    # |det(A - I)|, confirmed by enumeration
    lefschetz: int                # det(I - A)
    index_each: int               # common fixed point index, sign det(I - A)
    points: tuple                 # fixed points as tuples of Fraction in [0,1)


def count_fixed_points(torus_map: TorusMap) -> FixedPointReport:
    n = torus_map.dim
    a = torus_map.matrix
    b = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    det_b = _int_determinant(b)
    if det_b == 0:
        raise DegenerateMap("det(A - I) = 0, fixed points are not isolated; "
                            "the Lefschetz number is still available through "
                            "the cochain pipeline (lefschetz command)")
    lefschetz = (-1) ** n * det_b          # det(I - A) = (-1)^n det(A - I)
    count_det = abs(det_b)

    # adj(B) = det(B) B^-1, integral because B is
    adj = det_b * inverse(Matrix(b))
    if any(x.denominator != 1 for row in adj.entries for x in row):
        raise InternalConsistencyFailure(
            f"adjugate {adj} of an integer matrix is not integral")
    adj = [[x.numerator for x in row] for row in adj.entries]
    # k = (A - I) x with x in [0,1)^n lies in the box given by the row-wise
    # sums of negative resp. positive entries (closed bounds are safe).
    ranges = []
    for i in range(n):
        low = sum(min(v, 0) for v in b[i])
        high = sum(max(v, 0) for v in b[i])
        ranges.append(range(low, high + 1))
    points = []
    for k in itertools.product(*ranges):
        y = [sum(adj[i][j] * k[j] for j in range(n)) for i in range(n)]
        # x_i = y_i / det_b must satisfy 0 <= x_i < 1
        if det_b > 0:
            ok = all(0 <= yi < det_b for yi in y)
        else:
            ok = all(det_b < yi <= 0 for yi in y)
        if ok:
            points.append(tuple(Fraction(yi, det_b) for yi in y))
    points.sort()
    if len(points) != count_det:
        raise InternalConsistencyFailure(
            f"enumeration found {len(points)} fixed points, "
            f"determinant says {count_det}")
    index = 1 if lefschetz > 0 else -1
    if lefschetz != index * count_det:
        raise InternalConsistencyFailure(
            f"fixed point index {index} times count {count_det} "
            f"is not det(I - A) = {lefschetz}")
    return FixedPointReport(count=count_det, lefschetz=lefschetz,
                            index_each=index, points=tuple(points))


def _int_determinant(rows) -> int:
    d = determinant(Matrix(rows))
    if d.denominator != 1:
        raise InternalConsistencyFailure(
            f"determinant {d} of an integer matrix is not an integer")
    return d.numerator


def cross_check_with_ce(torus_map: TorusMap):
    """Same number through the cochain pipeline: the torus is the nilmanifold
    of the abelian algebra, where the complex is the bare exterior algebra.
    Returns (fixed point report, cochain-side Lefschetz number, verdict)."""
    from .lefschetz import twisted_lefschetz
    from .liealg import LieAlgebra, endomorphism
    from .repn import Intertwiner, trivial_module

    report = count_fixed_points(torus_map)
    algebra = LieAlgebra(dim=torus_map.dim)
    module = trivial_module(algebra)
    f = endomorphism(algebra, [[Fraction(x) for x in row]
                               for row in torus_map.matrix])
    xi = Intertwiner(morphism=f, module=module, matrix=[[1]])
    lef = twisted_lefschetz(algebra, module, f, xi)
    agree = lef.lefschetz == Fraction(report.lefschetz)
    return report, lef.lefschetz, agree

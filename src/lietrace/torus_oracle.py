"""Fixed points of integer self-maps of the torus R^n / Z^n.

Independent cross-check for the determinant formula: a map with integer
matrix A has x fixed iff B x is integral, B = A - I, so when det B != 0 the
fixed points form the finite group B^(-1) Z^n / Z^n.  It is generated by the
columns of B^(-1) reduced mod 1, that is the rows of (B^T)^(-1), which
ratlin.inverse finds by fraction-free Gauss-Jordan, and is found as the
closure of {0} under adding them, in Theta(n |det B|) vector additions.
B, B^T and the map handed to the cochain pipeline are built from the
validated integer rows, without Fraction.  Every call checks that det B is
an integer, that B g is integral for each generator g and that the
closure has |det B| points; a mismatch raises InternalConsistencyFailure.
Each point has index sign det(I - A).  Everything is exact, so membership
in [0,1)^n is too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ratlin import (MEMO_SIZE, InternalConsistencyFailure, InvalidInput,
                     Matrix, Record, determinant, format_rational, inverse)


MAX_FIXED_POINTS = 10 ** 4   # every point is kept: time and memory follow it


class TorusMap(Record):
    """Integer matrix acting on the standard torus."""
    matrix: tuple  # tuple of tuples of int

    def __post_init__(self):
        rows = tuple(tuple(x for x in row) for row in self.matrix)
        for row in rows:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidInput(f"entry {x!r} is not an integer")
            if len(row) != len(rows):
                raise InvalidInput("matrix must be square")
        if not rows:
            raise InvalidInput("matrix must have at least one row")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)


class FixedPointReport(Record):
    count: int                    # |det(A - I)|, confirmed by enumeration
    lefschetz: int                # det(I - A)
    index_each: int               # index of every point: sign of det(I - A)
    points: tuple                 # fixed points as tuples of Fraction in [0,1)


def _integer_matrix(rows) -> Matrix:
    """The square integer `rows` as a Matrix over 1, with no Fraction."""
    return Matrix._of(tuple(tuple((j, x) for j, x in enumerate(row) if x)
                            for row in rows), len(rows))


def count_fixed_points(torus_map: TorusMap) -> FixedPointReport:
    n = torus_map.dim
    b = _integer_matrix([[x - (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(torus_map.matrix)])
    det_b = determinant(b)
    if det_b.denominator != 1:
        raise InternalConsistencyFailure(
            f"determinant {det_b} of an integer matrix is not an integer")
    det_b = det_b.numerator
    if abs(det_b) > MAX_FIXED_POINTS:
        raise InvalidInput(
            f"{format_rational(abs(det_b))} fixed points, above the cap of "
            f"{MAX_FIXED_POINTS}")
    if det_b == 0:
        raise InvalidInput("det(A - I) = 0, fixed points are not isolated; "
                           "the Lefschetz number is still available through "
                           "the cochain pipeline (lefschetz command)")
    lefschetz = (-1) ** n * det_b          # det(I - A) = (-1)^n det(A - I)
    count_det = abs(det_b)

    # generators of B^-1 Z^n / Z^n: the columns of B^-1, the rows of
    # (B^T)^-1, mod 1, as integers over its denominator den like every
    # point; B g in Z^n for each
    columns = inverse(b.transpose())
    den = columns.den
    gens = [tuple(column.get(i, 0) % den for i in range(n))
            for column in map(dict, columns.sparse)]
    for g in gens:
        if any(sum([a * g[j] for j, a in row]) % den for row in b.sparse):
            raise InternalConsistencyFailure(
                f"(A - I) g is not integral for the generator g = "
                f"({', '.join(str(Fraction(x, den)) for x in g)})")
    points = [(0,) * n]
    seen = set(points)
    for x in points:                       # the list grows while it is read
        for g in gens:
            y = tuple((xi + gi) % den for xi, gi in zip(x, g))
            if y not in seen:
                seen.add(y)
                points.append(y)
    # one Fraction per residue, shared by the points; den divides det B
    # (B^-1 = adj B / det B), so there are no more residues than points
    residue = [Fraction(k, den) for k in range(den)]
    points = tuple(tuple(map(residue.__getitem__, p)) for p in sorted(points))
    if len(points) != count_det:
        raise InternalConsistencyFailure(
            f"enumeration found {len(points)} fixed points, "
            f"determinant says {count_det}")
    return FixedPointReport(count=count_det, lefschetz=lefschetz,
                            index_each=1 if lefschetz > 0 else -1,
                            points=points)


@lru_cache(maxsize=MEMO_SIZE)
def _torus_system(n: int) -> tuple:
    """(algebra, module): the abelian algebra of dimension n and its trivial
    module, one pair per n, so its basis ads and its coefficient system are
    built once."""
    from .liealg import LieAlgebra
    from .repn import trivial_module

    algebra = LieAlgebra(dim=n)
    return algebra, trivial_module(algebra)


def cross_check_with_ce(torus_map: TorusMap):
    """Same number through the cochain pipeline: the torus is the nilmanifold
    of the abelian algebra, where the complex is the bare exterior algebra.
    Returns (fixed point report, cochain-side Lefschetz number, verdict)."""
    from .lefschetz import twisted_lefschetz
    from .liealg import endomorphism
    from .repn import identity_intertwiner

    report = count_fixed_points(torus_map)
    algebra, module = _torus_system(torus_map.dim)
    f = endomorphism(algebra, _integer_matrix(torus_map.matrix))
    lef = twisted_lefschetz(algebra, module, f,
                            identity_intertwiner(f, module))
    agree = lef.lefschetz == Fraction(report.lefschetz)
    return report, lef.lefschetz, agree

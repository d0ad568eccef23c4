"""Shared builders for the test suite: seeded random matrices, conjugated
modules, and the catalog shortcuts used across files."""

from fractions import Fraction
import itertools
import random

from lietrace.catalog import get, list_entries, sample_endomorphisms
from lietrace.liealg import LieAlgebra
from lietrace.ratlin import (Matrix, NonSquare, determinant, inverse,
                             p_subsets, rank)
from lietrace.repn import Representation, adjoint_module, trivial_module


def random_matrix(rng: random.Random, n: int, num=3, den=2) -> Matrix:
    return Matrix([[Fraction(rng.randint(-num, num), rng.randint(1, den))
                    for _ in range(n)] for _ in range(n)])


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n)
        if determinant(m) != 0:
            return m


def random_int_matrix(rng: random.Random, n: int, bound=3):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                 for _ in range(n))


def greedy_complete(fixed: list, candidates: list) -> list:
    """Reference for ratlin.complete_basis: keep the candidates, in order,
    that raise the rank of `fixed` plus the candidates kept so far, with one
    full rank computation per candidate."""
    span_rows = [list(v) for v in fixed]
    current = rank(Matrix(span_rows)) if span_rows else 0
    chosen = []
    for cand in candidates:
        trial = span_rows + [list(cand)]
        r = rank(Matrix(trial))
        if r > current:
            span_rows, current = trial, r
            chosen.append(cand)
    return chosen


# Reference kernels: plain Gaussian elimination over Fraction, as ratlin had
# them before elimination moved onto integer rows.  The tests compare the
# fraction-free kernels against these with ==.

def reference_rref(m: Matrix):
    """Gauss-Jordan over Fraction with the same pivot rule as ratlin.rref:
    columns left to right, first nonzero row at or below the pivot row."""
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = None
        for r in range(prow, nrows):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        inv = 1 / work[prow][col]
        work[prow] = [x * inv for x in work[prow]]
        for r in range(nrows):
            if r != prow and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[prow])]
        pivots.append(col)
        prow += 1
    return Matrix(work) if nrows else m, tuple(pivots), len(pivots)


def reference_determinant(m: Matrix) -> Fraction:
    """Gaussian elimination over Fraction with row swaps (sign tracked)."""
    if not m.is_square():
        raise NonSquare(f"determinant of {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    work = [list(row) for row in m.entries]
    det = Fraction(1)
    for col in range(n):
        sel = None
        for r in range(col, n):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def reference_exterior_power(m: Matrix, p: int) -> Matrix:
    """Lambda^p m with one full determinant per minor."""
    subsets = p_subsets(m.rows, p)
    return Matrix([[reference_determinant(m.submatrix(s, t)) for t in subsets]
                   for s in subsets])


def reference_fixed_points(rows) -> tuple:
    """Fixed points of the torus map with integer matrix `rows`, as
    count_fixed_points found them before it closed the group B^-1 Z^n / Z^n:
    scan every k in the bounding box of B x for x in [0,1)^n, B = A - I, and
    keep the x = adj(B) k / det(B) that land in [0,1)^n.  Sorted tuple."""
    n = len(rows)
    b = [[rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    det_b = determinant(Matrix(b))
    adj = [[(det_b * x).numerator for x in row]
           for row in inverse(Matrix(b)).entries]
    ranges = [range(sum(min(v, 0) for v in row), sum(max(v, 0) for v in row) + 1)
              for row in b]
    points = []
    for k in itertools.product(*ranges):
        x = tuple(Fraction(sum(adj[i][j] * k[j] for j in range(n)), det_b)
                  for i in range(n))
        if all(0 <= xi < 1 for xi in x):
            points.append(x)
    return tuple(sorted(points))


def conjugated_module(module: Representation, p: Matrix) -> Representation:
    """rho'(x) = P rho(x) P^-1: a representation whenever rho is."""
    p_inv = inverse(p)
    return Representation(algebra=module.algebra, dim=module.dim,
                          actions=tuple(p * a * p_inv for a in module.actions))


def direct_sum(a: Representation, b: Representation) -> Representation:
    assert a.algebra == b.algebra
    dim = a.dim + b.dim
    actions = []
    for x, y in zip(a.actions, b.actions):
        rows = []
        for i in range(a.dim):
            rows.append(list(x.row(i)) + [Fraction(0)] * b.dim)
        for i in range(b.dim):
            rows.append([Fraction(0)] * a.dim + list(y.row(i)))
        actions.append(Matrix(rows))
    return Representation(algebra=a.algebra, dim=dim, actions=tuple(actions))


def heisenberg_defining_module(algebra: LieAlgebra) -> Representation:
    """The 3x3 strictly-upper-triangular picture of heisenberg3."""
    e01 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e12 = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e02 = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    return Representation(algebra=algebra, dim=3, actions=(e01, e12, e02))


NILPOTENT_NAMES = ["abelian_1", "abelian_2", "abelian_3", "abelian_4",
                   "heisenberg3", "heisenberg5", "filiform4"]

ALL_NAMES = NILPOTENT_NAMES + ["sol3"]


def random_modules(seed: int, count: int) -> list[Representation]:
    """Validated random modules: conjugated adjoints, conjugated defining
    modules, and direct sums, spread over the catalog."""
    rng = random.Random(seed)
    out = []
    names = ALL_NAMES
    while len(out) < count:
        name = names[rng.randrange(len(names))]
        algebra = get(name).algebra
        choice = rng.randrange(3)
        if choice == 0:
            base = adjoint_module(algebra)
        elif choice == 1 and name == "heisenberg3":
            base = heisenberg_defining_module(algebra)
        else:
            base = direct_sum(trivial_module(algebra), adjoint_module(algebra))
        out.append(conjugated_module(base, random_invertible(rng, base.dim)))
    return out

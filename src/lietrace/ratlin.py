"""Exact rational linear algebra.

Everything downstream (cochain complexes, Lefschetz numbers, fixed point
counts) is built on the primitives here.  All values are Fraction; there are
no floats and no tolerances anywhere.  Elimination (rref, determinant) runs
on integer rows: each row is scaled by the lcm of its denominators, reduced
fraction-free, and turned back into Fraction only at the end.  The reduced
row echelon form is unique, so this gives the same bases as elimination over
Fraction would.  Determinism matters: rref scans columns left to right and
always picks the first usable pivot row, so every derived basis (kernels,
image bases, cohomology representatives) is reproducible across runs and
platforms.  The minimal polynomial is the first non-pivot column of one rref
of the Krylov columns [vec I | vec m | ... | vec m^n].
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NonSquare(ValueError):
    """Operation requires a square matrix."""


class DegreeOutOfRange(ValueError):
    """Exterior power degree p outside 0 <= p <= n."""


class NotInSpan(ValueError):
    """solve_in_span target not expressible in the given basis."""


class SingularMatrix(ValueError):
    """Inverse of a singular matrix was requested."""


class InvalidInput(ValueError):
    """Outside input that the library rejects (a malformed document, a map
    that is not a morphism, a split that does not hold).  Every other
    ValueError raised by the library means a bug."""


class InternalConsistencyFailure(ArithmeticError):
    """An identity that must hold (Hopf trace, span membership of induced
    cocycles, convergence of an exact iteration) failed; indicates a bug, not
    bad input."""


# ---------------------------------------------------------------------------
# rational text form: optional '-', digits, optional '/' digits
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0 after canonicalization).  Rejects floats,
    exponents, whitespace and anything else outside the grammar."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical text form, lowest terms, '7' or '-3/2'."""
    return str(Fraction(value))


def as_fraction(value) -> Fraction:
    """Coerce int / Fraction / rational string to Fraction.  Floats are
    rejected on purpose: exactness is the whole point."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction exactly")


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fraction
# ---------------------------------------------------------------------------

Vector = tuple  # tuple[Fraction, ...]


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def is_zero_vec(v: Vector) -> bool:
    return all(a == 0 for a in v)


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over Fraction.

    Row-major tuple-of-tuples storage.  Multiplication skips zero entries,
    which makes products with the (very sparse) cochain differentials cheap.
    The public constructor coerces every entry with as_fraction; results
    computed here from Fraction entries go through the trusted Matrix._of.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.entries = rows

    @classmethod
    def _of(cls, rows: tuple) -> "Matrix":
        """Trusted constructor: `rows` is a tuple of equal-length tuples of
        Fraction, taken as is without coercion or shape checks."""
        self = object.__new__(cls)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries = rows
        return self

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(tuple(tuple(_ONE if i == j else _ZERO
                                      for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(((_ZERO,) * cols,) * rows)

    @staticmethod
    def from_columns(columns, rows: int | None = None) -> "Matrix":
        columns = list(columns)
        if rows is None:
            rows = len(columns[0])
        out = tuple(tuple(col[i] for col in columns) for i in range(rows))
        if all(type(x) is Fraction for row in out for x in row):
            return Matrix._of(out)
        return Matrix(out)

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = [as_fraction(v) for v in values]
        n = len(values)
        return Matrix([[values[i] if i == j else Fraction(0) for j in range(n)]
                       for i in range(n)])

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row)
                         for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.entries)))

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "Matrix", op: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} {op} "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        return Matrix._of(tuple(tuple(a + b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        return Matrix._of(tuple(tuple(a - b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self._scaled(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        # each right-hand row as its (column, value) nonzero list, built once
        nonzero = [[(j, b) for j, b in enumerate(brow) if b]
                   for brow in other.entries]
        width = other.cols
        out = []
        for row in self.entries:
            acc = [_ZERO] * width
            for a, brow in zip(row, nonzero):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Matrix._of(tuple(out))

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix._of(tuple(tuple(c * a for a in row)
                                for row in self.entries))

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector; zero products are skipped."""
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{len(v)}x1")
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.entries:
            acc = _ZERO
            for j, x in nonzero:
                a = row[j]
                if a:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NonSquare("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = tuple(col_idx)
        return Matrix._of(tuple(tuple(self.entries[i][j] for j in col_idx)
                                for i in row_idx))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} hstack "
                             f"{other.rows}x{other.cols}")
        return Matrix._of(tuple(r1 + r2 for r1, r2
                                in zip(self.entries, other.entries)))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Each row of m times the lcm of its denominators, and the product of
    those scales.  Scaling a row by a nonzero constant keeps the row space
    and the zero pattern."""
    out = []
    scale = 1
    for row in m.entries:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    return out, scale


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form.

    Deterministic pivot rule: scan columns left to right; in each column take
    the first row (top to bottom, at or below the current pivot row) with a
    nonzero entry.  Returns (reduced, pivot_columns, rank).

    The elimination is fraction-free on integer-scaled rows: a row with
    entry b in the pivot column becomes (a/g)*row - (b/g)*pivot_row, with a
    the pivot and g = gcd(a, b), and is then divided by its content.  Only
    the pivot row's nonzero entries are visited.  Pivot rows are divided by
    their pivots at the end, giving the unique reduced form.
    """
    nrows, ncols = m.rows, m.cols
    if not nrows:
        return m, (), 0
    work, _ = _integer_rows(m)
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = None
        for r in range(prow, nrows):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        pivot_row = work[prow]
        a = pivot_row[col]
        nonzero = [(j, x) for j, x in enumerate(pivot_row) if x]
        for r in range(nrows):
            row = work[r]
            b = row[col]
            if not b or r == prow:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            if ag != 1:
                row = [ag * x for x in row]
            for j, x in nonzero:
                row[j] -= bg * x
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
            work[r] = row
        pivots.append(col)
        prow += 1
    zero_row = (_ZERO,) * ncols
    out = []
    for r in range(nrows):
        if r >= prow:
            out.append(zero_row)
            continue
        row = work[r]
        a = row[pivots[r]]
        if a == 1:
            out.append(tuple(Fraction(x) if x else _ZERO for x in row))
        elif a == -1:
            out.append(tuple(Fraction(-x) if x else _ZERO for x in row))
        else:
            out.append(tuple(Fraction(x, a) if x else _ZERO for x in row))
    return Matrix._of(tuple(out)), tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_and_image(m: Matrix) -> tuple[list[Vector], list[Vector]]:
    """Kernel basis and image basis of m, both read off one rref of m.

    Kernel convention: one vector per free column, visited left to right;
    the free variable is set to 1 and the pivot variables are read off the
    reduced rows, so kernel_and_image([[1,1]])[0] == [(-1, 1)].  The image
    basis is the pivot columns of m itself, in order.
    """
    reduced, pivots, _ = rref(m)
    pivot_set = set(pivots)
    kernel = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for prow, pcol in enumerate(pivots):
            v[pcol] = -reduced.entries[prow][free]
        kernel.append(tuple(v))
    return kernel, [m.column(j) for j in pivots]


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the null space; see kernel_and_image for the convention."""
    return kernel_and_image(m)[0]


def complete_basis(fixed: list[Vector], candidates: list[Vector]) -> list[Vector]:
    """The candidates, in order, that each grow the span of `fixed` and the
    candidates before them.

    This is the greedy left-to-right rank extension, computed as the pivot
    columns past `fixed` of one rref of the columns [fixed | candidates]:
    a column is a pivot exactly when it is outside the span of the columns
    to its left.
    """
    if not candidates:
        return []
    columns = list(fixed) + list(candidates)
    _, pivots, _ = rref(Matrix.from_columns(columns))
    return [columns[j] for j in pivots if j >= len(fixed)]


def determinant(m: Matrix) -> Fraction:
    """Fraction-free (Bareiss) elimination on the integer-scaled rows, with
    a sign flip per row swap; the product of the row scales is divided out
    once at the end."""
    if not m.is_square():
        raise NonSquare(f"determinant of {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    work, scale = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            sel = None
            for r in range(k + 1, n):
                if work[r][k]:
                    sel = r
                    break
            if sel is None:
                return Fraction(0)
            work[k], work[sel] = work[sel], work[k]
            sign = -sign
        pivot_row = work[k]
        a = pivot_row[k]
        for i in range(k + 1, n):
            row = work[i]
            b = row[k]
            # exact by Sylvester's identity: prev divides every 2x2 term
            work[i] = [0] * (k + 1) + [(a * row[j] - b * pivot_row[j]) // prev
                                       for j in range(k + 1, n)]
        prev = a
    return Fraction(sign * work[n - 1][n - 1], scale)


def inverse(m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on [m | I]."""
    if not m.is_square():
        raise NonSquare("inverse of non-square matrix")
    n = m.rows
    reduced, pivots, r = rref(m.hstack(Matrix.identity(n)))
    if r < n or any(p >= n for p in pivots):
        raise SingularMatrix("matrix is singular")
    return reduced.submatrix(range(n), range(n, 2 * n))


def solve_in_span(basis: list[Vector], target: Vector) -> list[Fraction]:
    """Coefficients expressing target in an independent basis.

    Raises NotInSpan when the basis is dependent or the target falls outside
    its span.
    """
    return solve_all_in_span(basis, [target])[0]


def solve_all_in_span(basis: list[Vector],
                      targets: list[Vector]) -> list[list[Fraction]]:
    """Coefficients of every target in an independent basis, from one rref
    of the columns [basis | targets].

    Raises NotInSpan when the basis is dependent or some target falls
    outside its span.  Used to read induced cohomology maps off
    representative bases, where failure means an internal inconsistency
    upstream.
    """
    if not basis:
        if all(is_zero_vec(t) for t in targets):
            return [[] for _ in targets]
        raise NotInSpan("empty basis cannot express a nonzero target")
    dim, k = len(basis[0]), len(basis)
    for t in targets:
        if len(t) != dim:
            raise ValueError(f"shape mismatch: basis vectors of length {dim}, "
                             f"target of length {len(t)}")
    reduced, pivots, r = rref(Matrix.from_columns(list(basis) + list(targets)))
    if r > 0 and pivots[-1] >= k:
        raise NotInSpan("target not in span of basis")
    if r < k:
        raise NotInSpan("basis is linearly dependent")
    # pivots are exactly 0..k-1, so row i holds the coefficient of basis[i]
    return [[reduced.entries[i][k + j] for i in range(k)]
            for j in range(len(targets))]


# ---------------------------------------------------------------------------
# exterior powers
# ---------------------------------------------------------------------------

def p_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    """All p-element subsets of {0..n-1} in lexicographic order."""
    return list(itertools.combinations(range(n), p))


def exterior_powers(m: Matrix) -> list[Matrix]:
    """Lambda^0 m .. Lambda^n m.  Rows and columns of Lambda^p are indexed
    by lexicographically ordered p-subsets; entry (S, T) is the minor of m
    with rows S and columns T.

    Each degree-p minor is the first-row Laplace expansion over degree-(p-1)
    minors: with s the first row of S, minor(S, T) is the sum over positions
    k of (-1)^k m[s][T[k]] minor(S - s, T - T[k]).  Zero terms are skipped.
    """
    if not m.is_square():
        raise NonSquare("exterior power of non-square matrix")
    n = m.rows
    powers = [Matrix._of(((_ONE,),))]
    index = {(): 0}
    for p in range(1, n + 1):
        subsets = p_subsets(n, p)
        # per column subset T: (column T[k], index of T - T[k], sign)
        faces = [[(t, index[cols[:k] + cols[k + 1:]], k % 2 == 1)
                  for k, t in enumerate(cols)] for cols in subsets]
        prev = powers[-1].entries
        rows = []
        for s in subsets:
            mrow = m.entries[s[0]]
            minors = prev[index[s[1:]]]
            out = []
            for face in faces:
                acc = _ZERO
                for t, j, negative in face:
                    a = mrow[t]
                    if a:
                        b = minors[j]
                        if b:
                            if negative:
                                acc -= a * b
                            else:
                                acc += a * b
                out.append(acc)
            rows.append(tuple(out))
        powers.append(Matrix._of(tuple(rows)))
        index = {s: i for i, s in enumerate(subsets)}
    return powers


def exterior_power(m: Matrix, p: int) -> Matrix:
    """p-th exterior power, read off exterior_powers.

    Multiplicative (Cauchy-Binet) and Lambda^1 m == m; Lambda^0 m == [1].
    """
    powers = exterior_powers(m)
    if not 0 <= p < len(powers):
        raise DegreeOutOfRange(f"degree {p} not in 0..{m.rows}")
    return powers[p]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) is a[i][j] * b."""
    zero_block = (_ZERO,) * b.cols
    out = []
    for arow in a.entries:
        for brow in b.entries:
            row = []
            for aij in arow:
                row.extend(tuple(aij * x for x in brow) if aij else zero_block)
            out.append(tuple(row))
    return Matrix._of(tuple(out))


# ---------------------------------------------------------------------------
# polynomials over Fraction (dense, low degree first): minimal polynomial,
# squarefree part, and their evaluation at a matrix
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_scale(c, p):
    return _poly_trim([c * a for a in p])


def _poly_divmod(p, q):
    q = _poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    p = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(_poly_trim(p)) >= len(q):
        p = _poly_trim(p)
        shift = len(p) - len(q)
        c = p[-1] / lead
        quot[shift] = c
        for i, b in enumerate(q):
            p[shift + i] -= c * b
    return _poly_trim(quot), _poly_trim(p)


def _poly_gcd(p, q):
    """Monic gcd."""
    p, q = _poly_trim(list(p)), _poly_trim(list(q))
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    if p:
        p = _poly_scale(1 / p[-1], p)
    return p


def _poly_derivative(p):
    return _poly_trim([i * a for i, a in enumerate(p)][1:])


def _poly_eval_matrix(p, m: Matrix) -> Matrix:
    """Horner evaluation p(m)."""
    n = m.rows
    out = Matrix.zero(n, n)
    for a in reversed(p):
        out = out * m + a * Matrix.identity(n)
    return out


def minimal_polynomial(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, from one rref of the Krylov columns
    [vec I | vec m | ... | vec m^n].  Column k is a pivot exactly when m^k is
    outside the span of the lower powers, so the pivots are 0..k-1 and the
    first non-pivot column k holds the coefficients of m^k in I .. m^(k-1)."""
    if not m.is_square():
        raise NonSquare("minimal polynomial of non-square matrix")
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    reduced, pivots, k = rref(Matrix.from_columns(
        [tuple(x for row in p.entries for x in row) for p in powers]))
    if k > n or pivots != tuple(range(k)):
        raise InternalConsistencyFailure(
            f"minimal polynomial degree exceeded dimension {n}: Krylov "
            f"pivots {list(pivots)} are not 0..k-1 for some k <= {n}")
    # m^k = sum c_i m^i  ->  x^k - sum c_i x^i
    return _poly_trim([-reduced.entries[i][k] for i in range(k)]
                      + [Fraction(1)])


def squarefree_part(p) -> list[Fraction]:
    """p / gcd(p, p'), monic: the radical of p."""
    g = _poly_gcd(p, _poly_derivative(p))
    quot, rem = _poly_divmod(p, g)
    if rem:
        raise InternalConsistencyFailure(
            "gcd(p, p') does not divide p in the squarefree part")
    if quot:
        quot = _poly_scale(1 / quot[-1], quot)
    return quot


@dataclass(frozen=True)
class JordanParts:
    """Additive Jordan-Chevalley decomposition m = semisimple + nilpotent."""
    semisimple: Matrix
    nilpotent: Matrix


def jordan_chevalley(m: Matrix) -> JordanParts:
    """Decompose m = S + N with S semisimple (squarefree minimal polynomial
    over Q), N nilpotent, SN = NS.  No eigenvalues are computed: with r the
    squarefree part of the minimal polynomial, Newton's iteration
    S <- S - r(S) r'(S)^-1 from S = m runs on matrices until r(S) = 0.
    Every iterate is a polynomial in m; r(S) lies in an ideal that squares
    each step, so log2 of the degree of the minimal polynomial steps suffice.
    """
    if not m.is_square():
        raise NonSquare("jordan_chevalley of non-square matrix")
    mu = minimal_polynomial(m)
    rad = squarefree_part(mu)
    rad_prime = _poly_derivative(rad)
    semi = m
    for _ in range(max(1, (len(mu) - 1).bit_length())):
        value = _poly_eval_matrix(rad, semi)
        if value.is_zero():
            break
        try:
            step = value * inverse(_poly_eval_matrix(rad_prime, semi))
        except SingularMatrix:
            raise InternalConsistencyFailure(
                "r'(S) is not invertible in the Newton iteration")
        semi = semi - step
    else:
        if not _poly_eval_matrix(rad, semi).is_zero():
            raise InternalConsistencyFailure(
                "Newton iteration failed to converge")
    return JordanParts(semisimple=semi, nilpotent=m - semi)


"""Exact rational linear algebra.

Everything downstream (cochain complexes, Lefschetz numbers, fixed point
counts) is built on the primitives here.  All values are Fraction; there are
no floats and no tolerances anywhere.  A Matrix stores only its nonzeros,
and products, sums, exterior powers and elimination walk only those: the
cochain differentials are a few percent nonzero.  Elimination (rref,
determinant) runs on integer rows: each row is scaled by the lcm of its
denominators, reduced fraction-free, and turned back into Fraction only at
the end.  The reduced row echelon form is unique, so this gives the same
bases as elimination over Fraction in any row order, and every derived basis
(kernels, images, cohomology representatives) is reproducible across runs
and platforms.  A basis is a Matrix whose rows are the basis vectors, from
rref through kernel_and_image, quotient_basis and solve_all_in_span; only
the public kernel_basis and solve_in_span read or take dense vectors.  The
minimal polynomial is the first non-pivot column of one rref of the Krylov
columns [vec I | vec m | ... | vec m^n].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import gcd, lcm
from operator import is_not

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
    """Canonical '7' or '-3/2', via Decimal past the int-to-str limit."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        num, den = (format(Decimal(x), "f") for x in value.as_integer_ratio())
        return num if den == "1" else f"{num}/{den}"


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


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------

def _nonzeros(v) -> list:
    """The nonzero (index, value) pairs of a dense vector; _ZERO, the zero
    written here, is skipped by identity."""
    return [p for p in compress(enumerate(v), map(is_not, v, repeat(_ZERO)))
            if p[1]]


def packed_row(acc: dict) -> tuple:
    """A sparse row from a {column: Fraction} accumulator, zeros dropped."""
    return tuple([item for item in sorted(acc.items()) if item[1]])


def _densified(row: tuple, n: int) -> Vector:
    out = [_ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


class Matrix:
    """Immutable matrix over Fraction.  `sparse` holds each row as its
    nonzero (column, Fraction) pairs sorted by column, and every operation
    here walks only those; `entries`, a dense view built on first read and
    cached, is for repr, indexing and readers outside this module.  The
    constructor coerces dense rows with as_fraction; results computed here
    go through the trusted Matrix._of."""

    __slots__ = ("rows", "cols", "sparse", "_dense")

    def __init__(self, entries):
        rows = [tuple(as_fraction(x) for x in row) for row in entries]
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.sparse = tuple(tuple(_nonzeros(row)) for row in rows)
        self._dense = None

    @classmethod
    def _of(cls, sparse: tuple, cols: int) -> "Matrix":
        """Trusted constructor: `sparse` rows as stored, taken as is."""
        self = object.__new__(cls)
        self.rows = len(sparse)
        self.cols = cols
        self.sparse = sparse
        self._dense = None
        return self

    @property
    def entries(self) -> tuple:
        """Dense row-major view, built on first read and cached."""
        if self._dense is None:
            self._dense = tuple(_densified(row, self.cols)
                                for row in self.sparse)
        return self._dense

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(tuple(((i, _ONE),) for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(((),) * rows, cols)

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = [as_fraction(v) for v in values]
        return Matrix._of(tuple(((i, v),) if v else ()
                                for i, v in enumerate(values)), len(values))

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.rows, self.cols, self.sparse))

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
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return list(self.transpose().entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                out[j].append((i, x))
        return Matrix._of(tuple(map(tuple, out)), self.rows)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "Matrix", op: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} {op} "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        out = []
        for r1, r2 in zip(self.sparse, other.sparse):
            acc = dict(r1)
            for j, x in r2:
                acc[j] = acc[j] + x if j in acc else x
            out.append(packed_row(acc))
        return Matrix._of(tuple(out), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple((j, -x) for j, x in row)
                                for row in self.sparse), self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self._scaled(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        brows = other.sparse
        out = []
        for row in self.sparse:
            acc = {}
            for k, a in row:
                for j, b in brows[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(packed_row(acc))
        return Matrix._of(tuple(out), other.cols)

    def _scaled(self, c) -> "Matrix":
        c = as_fraction(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._of(tuple(tuple((j, c * x) for j, x in row)
                                for row in self.sparse), self.cols)

    __rmul__ = _scaled

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector, over the nonzeros of both."""
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{len(v)}x1")
        nonzero = dict(_nonzeros(v))
        out = []
        for row in self.sparse:
            acc = _ZERO
            for j, a in row:
                x = nonzero.get(j)
                if x is not None:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise NonSquare("trace of non-square matrix")
        diagonal = [x for i, row in enumerate(self.sparse) for j, x in row
                    if j == i]
        den = lcm(*[x.denominator for x in diagonal])
        return Fraction(sum(x.numerator * (den // x.denominator)
                            for x in diagonal), den)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = tuple(col_idx)
        where = {}
        for new, j in enumerate(col_idx):
            where.setdefault(j, []).append(new)
        return Matrix._of(tuple(
            tuple(sorted((new, x) for j, x in self.sparse[i] if j in where
                         for new in where[j]))
            for i in row_idx), len(col_idx))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} hstack "
                             f"{other.rows}x{other.cols}")
        shift = self.cols
        return Matrix._of(tuple(r1 + tuple((j + shift, x) for j, x in r2)
                                for r1, r2 in zip(self.sparse, other.sparse)),
                          self.cols + other.cols)


def linear_combination(terms, matrices) -> Matrix:
    """The sum of c * matrices[k] over the (k, c) pairs of `terms`, with
    one accumulator per row; `matrices` is non-empty and of one shape."""
    rows = [{} for _ in range(matrices[0].rows)]
    for k, c in terms:
        for acc, row in zip(rows, matrices[k].sparse):
            for j, x in row:
                acc[j] = acc[j] + c * x if j in acc else c * x
    return Matrix._of(tuple(map(packed_row, rows)), matrices[0].cols)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _integer_rows(m: Matrix) -> tuple[list[dict], int]:
    """Each row of m as {column: integer}, times the lcm of its
    denominators, and the product of those scales.  Scaling a row by a
    nonzero constant keeps the row space and the zero pattern."""
    out = []
    scale = 1
    for row in m.sparse:
        ratios = [(j, *x.as_integer_ratio()) for j, x in row]
        den = lcm(*[d for _, _, d in ratios])
        out.append({j: num * (den // d) for j, num, d in ratios})
        scale *= den
    return out, scale


def _eliminate(row: dict, col: int, pivot_row: dict) -> dict:
    """(a/g) row - (b/g) pivot_row over its content, for a and b their
    entries in column col and g = gcd(a, b): row with col cleared, visiting
    only the pivot row's nonzeros.  `row` may be changed in place."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    ag, bg = a // g, b // g
    if ag != 1:
        row = {j: ag * x for j, x in row.items()}
    for j, x in pivot_row.items():
        y = row.get(j, 0) - bg * x
        if y:
            row[j] = y
        else:
            del row[j]
    content = gcd(*row.values())
    if content > 1:
        row = {j: x // content for j, x in row.items()}
    return row


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form: (reduced, pivot_columns, rank).

    Fraction-free on the sparse integer-scaled rows, inserted one at a time
    into a table of reduced pivot rows: a row is cleared at the pivot columns
    it meets, and what is left leads with a new pivot, cleared from the rows
    in the table.  The RREF is unique, so the insertion order does not change
    the result.  Pivot rows are divided by their pivots at the end.
    """
    if not m.rows:
        return m, (), 0
    work, _ = _integer_rows(m)
    table = {}   # pivot column -> its row, zero at every other pivot column
    for row in work:
        for col in [c for c in row if c in table]:
            row = _eliminate(row, col, table[col])
        if not row:
            continue
        lead = min(row)
        for col, other in table.items():
            if lead in other:
                table[col] = _eliminate(other, lead, row)
        table[lead] = row
    pivots = tuple(sorted(table))
    out = tuple(tuple((j, Fraction(x, table[col][col]))
                      for j, x in sorted(table[col].items())) for col in pivots)
    return (Matrix._of(out + ((),) * (m.rows - len(pivots)), m.cols), pivots,
            len(pivots))


def kernel_and_image(m: Matrix) -> tuple[Matrix, Matrix]:
    """Kernel basis and image basis of m, as the rows of two matrices, both
    read off one rref of m.

    Kernel convention: one row per free column, visited left to right; the
    free variable is set to 1 and the pivot variables are read off the
    reduced rows, so the kernel of [[1, 1]] is [[-1, 1]].  The image basis is
    the pivot columns of m itself, in order.
    """
    reduced, pivots, _ = rref(m)
    pivot_set, reduced_columns = set(pivots), reduced.transpose().sparse
    # a free column's entries sit in rows whose pivots lie left of it
    kernel = tuple(tuple((pivots[i], -x) for i, x in reduced_columns[j])
                   + ((j, _ONE),)
                   for j in range(m.cols) if j not in pivot_set)
    columns = m.transpose().sparse
    return (Matrix._of(kernel, m.cols),
            Matrix._of(tuple(columns[j] for j in pivots), m.rows))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Dense null space basis; see kernel_and_image for the convention."""
    return list(kernel_and_image(m)[0].entries)


def quotient_basis(kernel: Matrix, fixed: Matrix) -> tuple:
    """(rows, coordinates, rank): the rows of `kernel` that greedily extend
    the rows of `fixed` (in their span), the matrix with v * coordinates =
    v mod span(fixed) on those rows, and rank(fixed).  A kernel row ends in
    (j, 1) at its free column j, so v's free entries are its coordinates;
    with them reversed, fixed's rref has a pivot where the greedy pass skips.
    """
    free = [row[-1][0] for row in reversed(kernel.sparse)]
    reduced, pivots, rank = rref(fixed.submatrix(range(fixed.rows), free))
    kept = sorted(set(range(len(free))).difference(pivots), reverse=True)
    place = {c: s for s, c in enumerate(kept)}
    coordinates = [()] * kernel.cols
    for c, s in place.items():
        coordinates[free[c]] = ((s, _ONE),)
    for c, row in zip(pivots, reduced.sparse):   # v_c times the reduced row
        coordinates[free[c]] = tuple((place[j], -x) for j, x in reversed(row)
                                     if j != c)
    return (Matrix._of(tuple(kernel.sparse[-1 - c] for c in kept), kernel.cols),
            Matrix._of(tuple(coordinates), len(kept)), rank)


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
    work = [[row.get(j, 0) for j in range(n)] for row in work]
    sign, prev = 1, 1
    for k in range(n - 1):
        sel = next((r for r in range(k, n) if work[r][k]), None)
        if sel is None:
            return Fraction(0)
        if sel != k:
            work[k], work[sel] = work[sel], work[k]
            sign = -sign
        pivot_row = work[k]
        a = pivot_row[k]
        for i in range(k + 1, n):
            row, b = work[i], work[i][k]
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
    """Coefficients of a dense target in an independent dense basis;
    NotInSpan when the basis is dependent or the target is outside its span."""
    rows = Matrix(basis) if basis else Matrix.zero(0, len(target))
    return list(solve_all_in_span(rows, Matrix([target])).column(0))


def solve_all_in_span(basis: Matrix, targets: Matrix) -> Matrix:
    """Coefficients of every row of `targets` in the independent rows of
    `basis`, from one rref of the columns [basis | targets]: column i of the
    result holds the coefficients of target i.

    Raises NotInSpan when the basis is dependent or some target falls
    outside its span.
    """
    if basis.cols != targets.cols:
        raise ValueError(f"shape mismatch: basis vectors of length "
                         f"{basis.cols}, target of length {targets.cols}")
    k = basis.rows
    stacked = Matrix._of(basis.sparse + targets.sparse, basis.cols)
    reduced, pivots, r = rref(stacked.transpose())
    if r > 0 and pivots[-1] >= k:
        raise NotInSpan("target not in span of basis")
    if r < k:
        raise NotInSpan("basis is linearly dependent")
    # pivots are exactly 0..k-1, so row i holds the coefficients of basis[i]
    return reduced.submatrix(range(k), range(k, k + targets.rows))


# ---------------------------------------------------------------------------
# exterior powers
# ---------------------------------------------------------------------------

def p_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    """All p-element subsets of {0..n-1} in lexicographic order."""
    return list(combinations(range(n), p))


def exterior_powers(m: Matrix) -> list[Matrix]:
    """Lambda^0 m .. Lambda^n m.  Rows and columns of Lambda^p are indexed
    by lexicographically ordered p-subsets; entry (S, T) is the minor of m
    with rows S and columns T."""
    return list(_exterior_powers(m))


def _exterior_powers(m: Matrix):
    """Lambda^0 m, Lambda^1 m, ... generated degree by degree.

    Each degree-p minor is the first-row Laplace expansion over degree-(p-1)
    minors: with s the first row of S, minor(S, T) is the sum over positions
    k of (-1)^k m[s][T[k]] minor(S - s, T - T[k]).  It is accumulated over
    the nonzeros of row s of m and of row S - s of Lambda^(p-1) m.
    """
    if not m.is_square():
        raise NonSquare("exterior power of non-square matrix")
    n = m.rows
    power = Matrix.identity(1)
    yield power
    index = {(): 0}
    for p in range(1, n + 1):
        subsets = p_subsets(n, p)
        # per (p-1)-subset F: column t -> (index of F + t, sign of t's place)
        grow = [{} for _ in index]
        for col, cols in enumerate(subsets):
            for k, t in enumerate(cols):
                grow[index[cols[:k] + cols[k + 1:]]][t] = (col, k % 2 == 1)
        prev = power.sparse
        rows = []
        for s in subsets:
            mrow = m.sparse[s[0]]
            acc = {}
            for face, b in prev[index[s[1:]]]:
                faces = grow[face]
                for t, a in mrow:
                    if t in faces:
                        col, negative = faces[t]
                        term = -a * b if negative else a * b
                        acc[col] = acc[col] + term if col in acc else term
            rows.append(packed_row(acc))
        power = Matrix._of(tuple(rows), len(subsets))
        yield power
        index = {s: i for i, s in enumerate(subsets)}


def exterior_power(m: Matrix, p: int) -> Matrix:
    """p-th exterior power, built up to degree p only.  Multiplicative
    (Cauchy-Binet), Lambda^1 m == m and Lambda^0 m == [1]."""
    for q, power in enumerate(_exterior_powers(m)):
        if q == p:
            return power
    raise DegreeOutOfRange(f"degree {p} not in 0..{m.rows}")


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) is a[i][j] * b."""
    width = b.cols
    return Matrix._of(tuple(
        tuple((ja * width + jb, x * y) for ja, x in arow for jb, y in brow)
        for arow in a.sparse for brow in b.sparse), a.cols * b.cols)


# ---------------------------------------------------------------------------
# polynomials over Fraction (dense, low degree first): minimal polynomial,
# squarefree part, and their evaluation at a matrix
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


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
    return [a / p[-1] for a in p]


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
    krylov = [[] for _ in range(n * n)]   # row i*n + j holds entry (i, j)
    power = Matrix.identity(n)
    for k in range(n + 1):
        for i, row in enumerate(power.sparse):
            for j, x in row:
                krylov[i * n + j].append((k, x))
        power = power * m
    reduced, pivots, k = rref(Matrix._of(tuple(map(tuple, krylov)), n + 1))
    if k > n or pivots != tuple(range(k)):
        raise InternalConsistencyFailure(
            f"minimal polynomial degree exceeded dimension {n}: Krylov "
            f"pivots {list(pivots)} are not 0..k-1 for some k <= {n}")
    # m^k = sum c_i m^i  ->  x^k - sum c_i x^i
    column = reduced.submatrix(range(k), [k]).column(0)
    return _poly_trim([-x for x in column] + [Fraction(1)])


def squarefree_part(p) -> list[Fraction]:
    """p / gcd(p, p'), monic: the radical of p."""
    g = _poly_gcd(p, _poly_derivative(p))
    quot, rem = _poly_divmod(p, g)
    if rem:
        raise InternalConsistencyFailure(
            "gcd(p, p') does not divide p in the squarefree part")
    return [a / quot[-1] for a in quot]


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


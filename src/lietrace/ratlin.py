"""Exact rational linear algebra, with no floats and no tolerances.

A Matrix is its shape and the integer nonzeros of its rows over one positive
denominator, in lowest terms; it stores no dense view.  Products, sums, kron,
traces and exterior powers multiply only integers and walk only the nonzeros
(the cochain differentials are a few percent nonzero): no empty row is
packed, scanned or divided, and a product row from a left row with one
nonzero is its partner row, scaled.
rref eliminates fraction-free on the integer rows, and determinant,
det(I - m) and inverse share one fraction-free (Bareiss) kernel on them.
Every identity the library certifies (d o d = 0, the cohomology
representatives d_p reps^T = 0 and coords^T reps^T = I, chain maps,
cocycle images, brackets) is a sum of c * a * b that one kernel, vanishes,
checks (apart from the chain map of a diagonal map, which cecomplex checks
on its weights) row by row, stopping at the first nonzero row, without
building the products; the counts (rank-nullity, the representatives =
betti) and the cochain traces of a diagonal map are compared as integers.
The reduced row echelon form is unique, so every derived basis (kernels,
images, cohomology representatives, each a Matrix whose rows are the basis
vectors) is the one elimination over Fraction gives, on any platform.
Fraction appears only at the edges: dense input, the dense views
(`entries`, `row`, `m[i, j]`, built from the rows on each read, for repr
and JSON), trace, determinant and the polynomial helpers.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

_ZERO = Fraction(0)
MEMO_SIZE = 16   # every functools.lru_cache of the package holds this many


class SingularMatrix(ValueError):
    """Inverse of a singular matrix was requested."""


class InvalidInput(ValueError):
    """Outside input that the library rejects (a malformed document, a map
    that is not a morphism, a split that does not hold).  Every other
    ValueError raised by the library means a bug."""


class InternalConsistencyFailure(ArithmeticError):
    """The one certificate exception: an identity that must hold (d o d = 0,
    rank-nullity, cohomology representatives, chain maps, cocycle images,
    cochain traces, Hopf trace, convergence of an exact iteration) failed;
    indicates a bug, not bad input."""


class Record:
    """Base of the library's immutable values.  It stands in for dataclasses,
    whose import loads inspect, ast, dis and tokenize into every command
    line process.  The fields are the names a subclass annotates, in order;
    a class attribute is a default.  As a dataclass does, each subclass gets
    a generated __init__, which sets the fields by position or name in the
    instance __dict__ (so cached_property works) and then calls the class's
    __post_init__, which may fix one up with object.__setattr__; and a
    generated == and hash over the fields not in _hidden, unless the class
    defines its own.  Assignment and deletion raise AttributeError."""

    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(n for n in cls._fields if n not in cls._hidden)
        params = ", ".join(f"{n}=_cls.{n}" if hasattr(cls, n) else n
                           for n in cls._fields)
        mine, theirs = (", ".join(f"{who}.{n}" for n in cls._shown) + ","
                        for who in ("self", "other"))
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n"
             + "".join(f"    _set(self, {n!r}, {n})\n" for n in cls._fields)
             + ("    self.__post_init__()\n"
                if hasattr(cls, "__post_init__") else "")
             + "def __eq__(self, other):\n"
               "    if self is other:\n"
               "        return True\n"
               "    if other.__class__ is not self.__class__:\n"
               "        return NotImplemented\n"
               f"    return ({mine}) == ({theirs})\n"
               "def __hash__(self):\n"
               f"    return hash(({mine}))\n", namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            if name not in cls.__dict__:
                namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, namespace[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: immutable value")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


# ---------------------------------------------------------------------------
# rational text form: optional '-', digits, optional '/' digits
# ---------------------------------------------------------------------------

_INTEGER = "-?[0-9]+"   # ASCII digits: \d matches every Unicode digit
_RATIONAL_RE = re.compile(f"{_INTEGER}(/[0-9]+)?")


def parse_integer(text: str) -> int:
    """Parse 'p', the numerator grammar of parse_rational."""
    if not re.fullmatch(_INTEGER, text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0 after canonicalization).  Rejects floats,
    exponents, whitespace and anything else outside the grammar."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
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


def format_vector(values) -> str:
    """'(1, -3/2, 0)': each entry by format_rational."""
    return "(" + ", ".join(map(format_rational, values)) + ")"


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
# Matrix; dense vectors are plain tuples of Fraction
# ---------------------------------------------------------------------------

Vector = tuple  # tuple[Fraction, ...]


def _nonzeros(v) -> list:
    """The nonzero (index, value) pairs of a dense vector."""
    return [(j, x) for j, x in enumerate(v) if x]


def _over_lcm(rows) -> tuple:
    """(rows, den): rows of nonzero (column, Fraction) pairs as integers
    over the lcm of the denominators.  Each value is in lowest terms, so
    gcd(den, numerators) = 1 already."""
    den = lcm(*[x.denominator for row in rows for _, x in row])
    return tuple(tuple((j, x.numerator * (den // x.denominator))
                       for j, x in row) for row in rows), den


def packed_row(acc: dict) -> tuple:
    """A sparse row from a {column: int} accumulator, zeros dropped; a
    lone entry is returned without a sort."""
    if len(acc) == 1:
        (item,) = acc.items()
        return (item,) if item[1] else ()
    return tuple([item for item in sorted(acc.items()) if item[1]])


def _densified(row: tuple, n: int, den: int) -> Vector:
    out = [_ZERO] * n
    for j, x in row:
        out[j] = Fraction(x, den)
    return tuple(out)


def _is_identity(m) -> bool:
    """Whether the Matrix m is square, over 1, with row i = ((i, 1),);
    stops at the first row that is not."""
    return (m.den == 1 and m.rows == m.cols
            and all(row == ((i, 1),) for i, row in enumerate(m.sparse)))


class Matrix:
    """Immutable matrix over Q: `sparse` holds each row as its nonzero
    (column, int) numerators sorted by column, over one denominator `den` >
    0 with gcd(den, numerators) = 1, so equal matrices store equal data.
    The constructor coerces dense rows with as_fraction; `entries`, `row`
    and `m[i, j]` build dense Fractions from those rows on each read."""

    __slots__ = ("rows", "cols", "sparse", "den")

    def __init__(self, entries):
        rows = [tuple(as_fraction(x) for x in row) for row in entries]
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.sparse, self.den = _over_lcm([_nonzeros(row) for row in rows])

    @classmethod
    def _of(cls, sparse: tuple, cols: int, den: int = 1) -> "Matrix":
        """The integer `sparse` rows over `den` > 0, put in lowest terms,
        walking only the non-empty rows."""
        if den > 1:
            g = gcd(den, *[x for row in sparse if row for _, x in row])
            if g > 1:
                den //= g
                sparse = tuple([tuple([(j, x // g) for j, x in row])
                                if row else () for row in sparse])
        return cls._canonical(sparse, cols, den)

    @classmethod
    def _canonical(cls, sparse: tuple, cols: int, den: int = 1) -> "Matrix":
        """Trusted constructor: rows over `den` already in lowest terms."""
        self = object.__new__(cls)
        self.rows = len(sparse)
        self.cols = cols
        self.sparse = sparse
        self.den = den
        return self

    @property
    def entries(self) -> tuple:
        """Dense row-major view of Fractions, built on each read."""
        return tuple(_densified(row, self.cols, self.den)
                     for row in self.sparse)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._canonical(tuple(((i, 1),) for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._canonical(((),) * rows, cols)

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = [as_fraction(v) for v in values]
        sparse, den = _over_lcm([((i, v),) if v else ()
                                 for i, v in enumerate(values)])
        return Matrix._canonical(sparse, len(values), den)

    # -- basic structure ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.sparse))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row)
                         for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __getitem__(self, index):
        i, j = index
        return self.row(i)[j]

    def row(self, i: int) -> Vector:
        return _densified(self.sparse[i], self.cols, self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                out[j].append((i, x))
        return Matrix._canonical(tuple(map(tuple, out)), self.rows, self.den)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "Matrix", op: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} {op} "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        return linear_combination([(0, 1), (1, 1)], (self, other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        return linear_combination([(0, 1), (1, -1)], (self, other))

    def __neg__(self) -> "Matrix":
        return Matrix._canonical(tuple(tuple((j, -x) for j, x in row)
                                       for row in self.sparse), self.cols,
                                 self.den)

    def __mul__(self, other):
        """Matrix product, or a scaling by a number.  A product with a
        square identity over 1 is the other factor itself, and a left row
        with one nonzero (k, a) is row k of the other factor times a."""
        if not isinstance(other, Matrix):
            return self._scaled(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        if _is_identity(other):
            return self
        if _is_identity(self):
            return other
        brows = other.sparse
        out = []
        for row in self.sparse:
            if len(row) == 1:
                ((k, a),) = row
                brow = brows[k]
                out.append(tuple([(j, a * b) for j, b in brow]) if brow
                           else ())
                continue
            acc = {}
            for k, a in row:
                for j, b in brows[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(packed_row(acc) if acc else ())
        return Matrix._of(tuple(out), other.cols, self.den * other.den)

    def _scaled(self, c) -> "Matrix":
        return linear_combination([(0, as_fraction(c))], (self,))

    __rmul__ = _scaled

    def apply(self, v: Vector) -> Vector:
        """Matrix times a dense column vector of Fractions, over the
        nonzeros of both."""
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{len(v)}x1")
        (pairs,), den = _over_lcm([_nonzeros(v)])
        nonzero, den = dict(pairs), den * self.den
        return tuple(Fraction(sum([a * nonzero.get(j, 0) for j, a in row]), den)
                     for row in self.sparse)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return Fraction(sum([x for i, row in enumerate(self.sparse)
                             for j, x in row if j == i]), self.den)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = tuple(col_idx)
        where = {}
        for new, j in enumerate(col_idx):
            where.setdefault(j, []).append(new)
        return Matrix._of(tuple(
            tuple(sorted((new, x) for j, x in self.sparse[i] if j in where
                         for new in where[j]))
            for i in row_idx), len(col_idx), self.den)


_IDENTITY_1 = Matrix.identity(1)


def linear_combination(terms, matrices, den: int = 1) -> Matrix:
    """The sum of (c / den) * matrices[k] over the (k, c) pairs of `terms`,
    c an int or a Fraction, with one accumulator per row; `matrices` is
    non-empty and of one shape."""
    terms = [(k, c.numerator, c.denominator * den * matrices[k].den)
             for k, c in terms]
    total = lcm(*[q for _, _, q in terms])
    rows = [{} for _ in range(matrices[0].rows)]
    for k, c, q in terms:
        c *= total // q
        for acc, row in zip(rows, matrices[k].sparse):
            for j, x in row:
                acc[j] = acc[j] + c * x if j in acc else c * x
    return Matrix._of(tuple(map(packed_row, rows)), matrices[0].cols, total)


def vanishes(terms) -> bool:
    """Whether the sum of c * a * b over the (c, a, b) `terms` is zero, b
    None for a lone a, c an int or a Fraction.  Every term's shapes are
    checked first; then a term with a zero factor (c = 0, or a or b with
    no nonzero row) is dropped, as it adds exactly zero.  Each other term
    becomes an integer scale over the lcm of the c.den * a.den * b.den, and
    the sum is accumulated one row at a time into one dict, returning at the
    first nonzero row: nothing is sorted, put in lowest terms or stored."""
    shape, scaled = None, []
    for c, a, b in terms:
        if b is None:   # a lone a is a * I
            b = Matrix.identity(a.cols)
        if a.cols != b.rows:
            raise ValueError(f"shape mismatch {a.rows}x{a.cols} * "
                             f"{b.rows}x{b.cols}")
        if shape is None:
            shape = a.rows, b.cols
        elif shape != (a.rows, b.cols):
            raise ValueError(f"shape mismatch {shape[0]}x{shape[1]} + "
                             f"{a.rows}x{b.cols}")
        if c and any(a.sparse) and any(b.sparse):
            scaled.append((c.numerator, c.denominator * a.den * b.den,
                           a.sparse, b.sparse))
    total = lcm(*[q for _, q, _, _ in scaled])
    scaled = [(c * (total // q), arows, brows) for c, q, arows, brows in scaled]
    acc = {}
    for i in range(shape[0] if scaled else 0):
        for s, arows, brows in scaled:
            for k, x in arows[i]:
                sx = s * x
                for j, y in brows[k]:
                    t = sx * y
                    acc[j] = acc[j] + t if j in acc else t
        if acc:
            if any(acc.values()):
                return False
            acc.clear()
    return True


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _in_lowest_terms(rows, dens) -> tuple[list, list]:
    """Integer rows, row i over dens[i] != 0, each divided by the gcd of
    its numerators and its denominator.  With one den for all rows, rows
    with unrelated denominators get back their own, and small integers."""
    if all(d == 1 for d in dens):
        return rows, dens
    out = [(row, gcd(d, *[x for _, x in row]), d) for row, d in zip(rows, dens)]
    return ([tuple((j, x // g) for j, x in row) for row, g, _ in out],
            [d // g for _, g, d in out])


def _over_lcm_of_rows(rows, dens) -> tuple:
    """(sparse, den): integer rows, row i over dens[i] != 0, in lowest terms
    and then over the lcm of their denominators, so gcd(den, nums) = 1.
    When every d is 1 (the exterior powers of an integer matrix) the rows
    are returned as they are, over 1."""
    # a d may be negative (rref passes its pivots), and lcm 1 still flips
    # signs: the fast path tests each d == 1, never lcm == 1
    if all(d == 1 for d in dens):
        return tuple(map(tuple, rows)), 1
    rows, dens = _in_lowest_terms(rows, dens)
    den = lcm(*dens)   # > 0: den // d keeps the sign of d
    return tuple(tuple((j, x * (den // d)) for j, x in row)
                 for row, d in zip(rows, dens)), den


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

    Fraction-free on the integer rows of m (its denominator does not change
    the row space), inserted one at a time into a table of reduced pivot
    rows: a row is cleared at the pivot columns it meets, and what is left
    leads with a new pivot, cleared from the rows in the table.  The RREF is
    unique, so the insertion order does not change the result.  At the end
    each pivot row is put over its pivot.
    """
    if not m.rows:
        return m, (), 0
    table = {}   # pivot column -> its row, zero at every other pivot column
    for row in m.sparse:
        row = dict(row)
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
    out, den = _over_lcm_of_rows([sorted(table[c].items()) for c in pivots],
                                 [table[c][c] for c in pivots])
    return (Matrix._canonical(out + ((),) * (m.rows - len(pivots)), m.cols,
                              den), pivots, len(pivots))


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
    den = reduced.den
    # a free column's entries sit in rows whose pivots lie left of it
    kernel = tuple(tuple((pivots[i], -x) for i, x in reduced_columns[j])
                   + ((j, den),)
                   for j in range(m.cols) if j not in pivot_set)
    columns = m.transpose().sparse
    return (Matrix._canonical(kernel, m.cols, den),
            Matrix._of(tuple(columns[j] for j in pivots), m.rows, m.den))


def quotient_basis(kernel: Matrix, fixed: Matrix) -> tuple:
    """(rows, coordinates, rank): the rows of `kernel` that greedily extend
    the rows of `fixed` (in their span), the matrix with v * coordinates =
    v mod span(fixed) on those rows, and rank(fixed).  A kernel row ends in
    a 1 at its free column j, so v's free entries are its coordinates;
    with them reversed, fixed's rref has a pivot where the greedy pass skips.
    """
    free = [row[-1][0] for row in reversed(kernel.sparse)]
    reduced, pivots, rank = rref(fixed.submatrix(range(fixed.rows), free))
    kept = sorted(set(range(len(free))).difference(pivots), reverse=True)
    place = {c: s for s, c in enumerate(kept)}
    coordinates = [()] * kernel.cols
    for c, s in place.items():
        coordinates[free[c]] = ((s, reduced.den),)
    for c, row in zip(pivots, reduced.sparse):   # v_c times the reduced row
        coordinates[free[c]] = tuple((place[j], -x) for j, x in reversed(row)
                                     if j != c)
    return (Matrix._of(tuple(kernel.sparse[-1 - c] for c in kept), kernel.cols,
                       kernel.den),
            Matrix._of(tuple(coordinates), len(kept), reduced.den), rank)


def _bareiss(work: list, n: int, jordan: bool = False) -> tuple[int, int]:
    """(sign, pivot): fraction-free (Bareiss) elimination, in place, on the
    dense integer rows `work` of n rows, whose first n columns are the
    square block.  Column k takes the first row at or below k with a
    nonzero entry there as pivot, a sign flip per row swap; each row below
    it (with `jordan`, each row above it too) becomes
    (a row - b pivot_row) / prev, for a the pivot, b the row's entry in
    column k and prev the pivot before.  The last pivot is det of the
    row-swapped block, so sign * pivot is the determinant; pivot is 0 when
    the block is singular.  With `jordan`, [M | I] ends as
    [pivot * I | pivot * M^-1].  Step k changes only the columns right of
    k: entries left of it are never read again, and are left stale."""
    sign, prev = 1, 1
    width = len(work[0]) if work else 0
    for k in range(n):
        if not work[k][k]:
            sel = next((r for r in range(k + 1, n) if work[r][k]), None)
            if sel is None:
                return sign, 0
            work[k], work[sel] = work[sel], work[k]
            sign = -sign
        pivot_row = work[k]
        a = pivot_row[k]
        for i in (range(n) if jordan else range(k + 1, n)):
            if i != k:
                row, b = work[i], work[i][k]
                # exact by Sylvester's identity: prev divides every 2x2 term
                row[k + 1:] = [(a * row[j] - b * pivot_row[j]) // prev
                               for j in range(k + 1, width)]
        prev = a
    return sign, prev


def _dense_rows(rows, width: int) -> list:
    """Sparse integer rows as dense lists of length `width`."""
    out = []
    for row in rows:
        line = [0] * width
        for j, x in row:
            line[j] = x
        out.append(line)
    return out


def determinant(m: Matrix) -> Fraction:
    """_bareiss on the integer rows M of m, each over its own d_i;
    det M / prod(d_i) at the end."""
    if not m.is_square():
        raise ValueError(f"determinant of {m.rows}x{m.cols} matrix")
    n = m.rows
    rows, dens = _in_lowest_terms(m.sparse, [m.den] * n)
    sign, pivot = _bareiss(_dense_rows(rows, n), n)
    return Fraction(sign * pivot, prod(dens))


def det_i_minus(m: Matrix) -> Fraction:
    """det(I - m), read straight from the integer rows M of m, each over its
    own d_i: row i of I - m is d_i e_i - M_i over d_i, so it is _bareiss on
    those rows over prod(d_i)."""
    if not m.is_square():
        raise ValueError(f"det(I - m) of {m.rows}x{m.cols} matrix")
    n = m.rows
    rows, dens = _in_lowest_terms(m.sparse, [m.den] * n)
    work = []
    for i, (row, d) in enumerate(zip(rows, dens)):
        line = [0] * n
        for j, x in row:
            line[j] = -x
        line[i] += d
        work.append(line)
    sign, pivot = _bareiss(work, n)
    return Fraction(sign * pivot, prod(dens))


def inverse(m: Matrix) -> Matrix:
    """m^-1 by fraction-free Gauss-Jordan (_bareiss) on [M | I], M the
    integer rows of m, row i over its own d_i: it ends at
    [pivot * I | pivot * M^-1], and m^-1 = M^-1 D for D = diag(d_i), so
    column j of the right block is scaled by d_j, over pivot."""
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    rows, dens = _in_lowest_terms(m.sparse, [m.den] * n)
    work = _dense_rows([row + ((n + i, 1),) for i, row in enumerate(rows)],
                       2 * n)
    _, pivot = _bareiss(work, n, jordan=True)
    if not pivot:
        raise SingularMatrix("matrix is singular")
    if pivot < 0:
        dens, pivot = [-d for d in dens], -pivot
    return Matrix._of(tuple(tuple((j, x * d) for j, (x, d)
                                  in enumerate(zip(line[n:], dens)) if x)
                            for line in work), n, pivot)


# ---------------------------------------------------------------------------
# exterior powers
# ---------------------------------------------------------------------------

def p_subsets(n: int, p: int) -> list[tuple[int, ...]]:
    """All p-element subsets of {0..n-1} in lexicographic order."""
    return list(combinations(range(n), p))


def exterior_powers(m: Matrix) -> list[Matrix]:
    """Lambda^0 m .. Lambda^n m, Lambda^0 m == [1] and Lambda^1 m == m,
    multiplicative (Cauchy-Binet).  Rows and columns of Lambda^p are
    indexed by the lexicographic p-subsets of subset_tables; entry (S, T)
    is the minor of m with rows S and columns T.  They are built from the
    integer rows M of m over their own denominators d: row S of Lambda^p m
    is row S of Lambda^p M over the product of d_s for s in S.

    Each degree-p minor is the first-row Laplace expansion over degree-(p-1)
    minors: with s the first row of S, minor(S, T) is the sum over positions
    k of (-1)^k M[s][T[k]] minor(S - s, T - T[k]).  It is accumulated over
    the nonzeros of row s of M and of row S - s of Lambda^(p-1) M, through
    the tables of subset_tables(n), which the cochain differentials read too.
    """
    if not m.is_square():
        raise ValueError("exterior power of non-square matrix")
    n = m.rows
    mrows, d = _in_lowest_terms(m.sparse, [m.den] * n)
    prev, prev_dens = _IDENTITY_1.sparse, [1]
    powers = [_IDENTITY_1]
    for heads, grow, _ in subset_tables(n)[1:]:
        rows, dens = [], []
        for s, face_row in heads:
            mrow = mrows[s]
            acc = {}
            for face, b in prev[face_row]:
                faces = grow[face]
                for t, a in mrow:
                    if t in faces:
                        col, negative = faces[t]
                        term = -a * b if negative else a * b
                        acc[col] = acc[col] + term if col in acc else term
            rows.append(packed_row(acc))
            dens.append(d[s] * prev_dens[face_row])
        prev, prev_dens = rows, dens
        sparse, den = _over_lcm_of_rows(rows, dens)
        powers.append(Matrix._canonical(sparse, len(heads), den))
    return powers


@lru_cache(maxsize=MEMO_SIZE)
def subset_tables(n: int) -> tuple:
    """The (heads, grow, subsets) of every degree p = 0..n in dimension n,
    the one place where p-subsets are indexed and an insertion into one is
    signed, for the exterior powers and the cochain differentials.  subsets
    are the lexicographic p-subsets; heads[S] = (first element s, index of
    S - s); grow[F][t] = (index of F + t, whether t sits at an odd place in
    it) for each (p-1)-subset F and t not in F.  Degree 0 holds the empty
    subset; each degree is built from the subsets of the one below, all in
    one pass on the first use of n, and kept for the MEMO_SIZE most recent
    n."""
    tables = [((), (), [()])]
    for p in range(1, n + 1):
        index = {s: i for i, s in enumerate(tables[-1][2])}
        subsets = p_subsets(n, p)
        grow = [{} for _ in index]
        for col, cols in enumerate(subsets):
            for k, t in enumerate(cols):
                grow[index[cols[:k] + cols[k + 1:]]][t] = (col, k % 2 == 1)
        tables.append(([(s[0], index[s[1:]]) for s in subsets], grow, subsets))
    return tuple(tables)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) is a[i][j] * b.  The gcd of every
    product x * y of numerators is content(a) * content(b), so the cells
    are built once, already in lowest terms, over a.den * b.den divided by
    g = gcd(a.den * b.den, content(a) * content(b)); a zero factor has
    content 0 and gives the zero matrix over 1.  kron(a, [[1]]) is a itself."""
    if b == _IDENTITY_1:
        return a
    den = a.den * b.den
    g = gcd(den, gcd(*[x for row in a.sparse for _, x in row])
            * gcd(*[y for row in b.sparse for _, y in row]))
    width = b.cols
    return Matrix._canonical(tuple([
        tuple([(ja * width + jb, x * y // g) for ja, x in arow
               for jb, y in brow])
        for arow in a.sparse for brow in b.sparse]), a.cols * b.cols, den // g)


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
    [vec I | vec M | ... | vec M^n] of the integers M = D m over D = m.den.
    Column k is a pivot exactly when M^k is outside the span of the lower
    powers, so the pivots are 0..k-1 and the first non-pivot column k holds
    the c_i with M^k = sum c_i M^i, that is m^k = sum c_i D^(i-k) m^i."""
    if not m.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.rows
    krylov = [[] for _ in range(n * n)]   # row i*n + j holds entry (i, j)
    power, scaled = Matrix.identity(n), Matrix._of(m.sparse, n)
    for k in range(n + 1):
        for i, row in enumerate(power.sparse):
            for j, x in row:
                krylov[i * n + j].append((k, x))
        power = power * scaled
    reduced, pivots, k = rref(Matrix._of(tuple(map(tuple, krylov)), n + 1))
    if k > n or pivots != tuple(range(k)):
        raise InternalConsistencyFailure(
            f"minimal polynomial degree exceeded dimension {n}: Krylov "
            f"pivots {list(pivots)} are not 0..k-1 for some k <= {n}")
    # m^k = sum c_i m^i  ->  x^k - sum c_i x^i
    return [Fraction(-dict(row).get(k, 0), reduced.den * m.den ** (k - i))
            for i, row in enumerate(reduced.sparse[:k])] + [Fraction(1)]


def squarefree_part(p) -> list[Fraction]:
    """p / gcd(p, p'), monic: the radical of p."""
    g = _poly_gcd(p, _poly_derivative(p))
    quot, rem = _poly_divmod(p, g)
    if rem:
        raise InternalConsistencyFailure(
            "gcd(p, p') does not divide p in the squarefree part")
    return [a / quot[-1] for a in quot]


class JordanParts(Record):
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
        raise ValueError("jordan_chevalley of non-square matrix")
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


"""Shared builders for the test suite: seeded random matrices, conjugated
modules, and the catalog shortcuts used across files."""

from fractions import Fraction
import itertools
import random
import re

from lietrace import ratlin
from lietrace.catalog import get, list_entries, sample_endomorphisms
from lietrace.liealg import (JacobiViolation, LieAlgebra, NotAMorphism,
                             SeriesReport)
from lietrace.ratlin import (Matrix, SingularMatrix, determinant, inverse,
                             kernel_and_image, p_subsets, rref)
from lietrace.repn import (Intertwiner, Representation, adjoint_module,
                           trivial_module, validate_intertwiner)


def whole(message: str) -> str:
    """A pytest.raises `match` pattern that accepts exactly `message`."""
    return f"^{re.escape(message)}$"


class NotInSpan(ValueError):
    """A target is not in the span of a basis, or the basis is dependent;
    raised by the reference solvers below, which the library does not use."""


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
    """Reference for ratlin.quotient_basis: keep the candidates, in order,
    that raise the rank of `fixed` plus the candidates kept so far, with one
    full rank computation per candidate."""
    span_rows = [list(v) for v in fixed]
    current = rref(Matrix(span_rows))[2] if span_rows else 0
    chosen = []
    for cand in candidates:
        trial = span_rows + [list(cand)]
        r = rref(Matrix(trial))[2]
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


def dense_matrix(rows, cols: int) -> Matrix:
    """Matrix(rows), which has no shape for an empty row list: 0 x cols."""
    return Matrix(rows) if rows else Matrix.zero(0, cols)


# Dense solves over ratlin.rref, for the tests only: the library reads
# kernels, cocycle checks and class coordinates off each rref and no
# longer solves in a span.

def kernel_basis(m: Matrix) -> list:
    """Dense null space basis; see ratlin.kernel_and_image for the
    convention."""
    return list(kernel_and_image(m)[0].entries)


def solve_all_in_span(basis: Matrix, targets: Matrix) -> Matrix:
    """Coefficients of every row of `targets` in the independent rows of
    `basis`, from one rref of the columns [basis | targets]: column i of the
    result holds the coefficients of target i.  NotInSpan when the basis is
    dependent or some target falls outside its span."""
    if basis.cols != targets.cols:
        raise ValueError(f"shape mismatch: basis vectors of length "
                         f"{basis.cols}, target of length {targets.cols}")
    k = basis.rows
    stacked = dense_matrix(basis.entries + targets.entries, basis.cols)
    reduced, pivots, r = rref(stacked.transpose())
    if r > 0 and pivots[-1] >= k:
        raise NotInSpan("target not in span of basis")
    if r < k:
        raise NotInSpan("basis is linearly dependent")
    # pivots are exactly 0..k-1, so row i holds the coefficients of basis[i]
    return reduced.submatrix(range(k), range(k, k + targets.rows))


def solve_in_span(basis: list, target) -> list:
    """Coefficients of a dense target in an independent dense basis;
    NotInSpan when the basis is dependent or the target is outside its span."""
    rows = Matrix(basis) if basis else Matrix.zero(0, len(target))
    return list(solve_all_in_span(rows, Matrix([target])).transpose().row(0))


# Dense reference kernels for the sparse Matrix: the operations as ratlin
# had them on tuple-of-tuples storage, reading only `entries`.

def reference_kernel_and_image(m: Matrix):
    reduced, pivots, _ = reference_rref(m)
    kernel = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -reduced.entries[prow][free]
        kernel.append(tuple(v))
    return kernel, [m.transpose().row(j) for j in pivots]


def reference_mul(a: Matrix, b: Matrix) -> Matrix:
    return dense_matrix([[sum((a.entries[i][k] * b.entries[k][j]
                               for k in range(a.cols)), Fraction(0))
                          for j in range(b.cols)] for i in range(a.rows)],
                        b.cols)


def reference_kron(a: Matrix, b: Matrix) -> Matrix:
    return dense_matrix([[x * y for x in arow for y in brow]
                         for arow in a.entries for brow in b.entries],
                        a.cols * b.cols)


def reference_transpose(m: Matrix) -> Matrix:
    return dense_matrix([list(col) for col in zip(*m.entries)]
                        if m.rows else [[]] * m.cols, m.rows)


def reference_submatrix(m: Matrix, row_idx, col_idx) -> Matrix:
    return dense_matrix([[m.entries[i][j] for j in col_idx] for i in row_idx],
                        len(col_idx))


def reference_solve_all_in_span(basis: Matrix, targets: Matrix) -> Matrix:
    """Coefficients of the target rows in the independent basis rows, from
    one reference_rref of the columns [basis | targets]; column j holds
    those of target j.  NotInSpan as in solve_all_in_span."""
    k = basis.rows
    columns = basis.entries + targets.entries
    reduced, pivots, r = reference_rref(dense_matrix(
        [[col[i] for col in columns] for i in range(basis.cols)],
        len(columns)))
    if r > 0 and pivots[-1] >= k:
        raise NotInSpan("target not in span of basis")
    if r < k:
        raise NotInSpan("basis is linearly dependent")
    return dense_matrix([[reduced.entries[i][k + j]
                          for j in range(targets.rows)] for i in range(k)],
                        targets.rows)


def reference_determinant(m: Matrix) -> Fraction:
    """Gaussian elimination over Fraction with row swaps (sign tracked)."""
    if not m.is_square():
        raise ValueError(f"determinant of {m.rows}x{m.cols} matrix")
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


def fraction_gauss_jordan(rows) -> tuple:
    """(det, inverse) of a square list of rows by Gauss-Jordan over
    Fraction on [rows | I], row swaps flipping the sign of det; inverse is
    a list of Fraction rows, or None when det = 0.  Plain lists only, so it
    shares no code with ratlin."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if work[r][col] != 0), None)
        if sel is None:
            return Fraction(0), None
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det, [row[n:] for row in work]


def reference_inverse(m: Matrix) -> Matrix:
    """m^-1 from fraction_gauss_jordan on m's dense entries; ValueError and
    SingularMatrix as in ratlin."""
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    det, inv = fraction_gauss_jordan(m.entries)
    if inv is None:
        raise SingularMatrix("matrix is singular")
    return dense_matrix(inv, m.cols)


def reference_exterior_power(m: Matrix, p: int) -> Matrix:
    """Lambda^p m with one full determinant per minor."""
    subsets = p_subsets(m.rows, p)
    return Matrix([[reference_determinant(m.submatrix(s, t)) for t in subsets]
                   for s in subsets])


def _restricted_trace(f: Matrix, basis: list) -> Fraction:
    """tr(f | V) for the span V of the independent dense column vectors in
    `basis`, which f maps into V: the trace of the coefficients of each
    f v in the basis, f v summed over the nonzero entries of f."""
    if not basis:
        return Fraction(0)
    images = [[sum((x * v[j] for j, x in enumerate(row) if x), Fraction(0))
               for row in f.entries] for v in basis]
    coefficients = reference_solve_all_in_span(dense_matrix(basis, f.cols),
                                               dense_matrix(images, f.rows))
    return sum((coefficients.entries[i][i] for i in range(len(basis))),
               Fraction(0))


def reference_cohomology_traces(algebra: LieAlgebra, f, xi) -> list:
    """tr H^p(F) for p = 0..n as tr(F_p | Z^p) - tr(F_p | B^p), with d_p,
    F_p = Lambda^p f^T (x) xi, Z^p and B^p rebuilt from the dense
    references alone.  Z^p and B^p are F_p-invariant, so the identity holds
    in any basis; the Hopf certificate sees only the alternating sum."""
    n, module = algebra.dim, xi.module
    ft = reference_transpose(f.matrix)
    traces, coboundaries = [], []               # B^0 = 0
    for p in range(n + 1):
        block = reference_kron(reference_exterior_power(ft, p), xi.matrix)
        if p < n:
            cocycles, image = reference_kernel_and_image(
                reference_differential(algebra, module, p))
        else:                                   # Z^n = C^n
            cocycles, image = list(Matrix.identity(block.rows).entries), []
        traces.append(_restricted_trace(block, cocycles)
                      - _restricted_trace(block, coboundaries))
        coboundaries = image
    return traces


def det_a_minus_i(rows) -> Fraction:
    """det(A - I) of the integer rows A, from fraction_gauss_jordan."""
    return fraction_gauss_jordan([[x - (i == j) for j, x in enumerate(row)]
                                  for i, row in enumerate(rows)])[0]


def reference_fixed_points(rows) -> tuple:
    """Fixed points of the torus map with integer matrix `rows`, as
    count_fixed_points found them before it closed the group B^-1 Z^n / Z^n:
    scan every k in the bounding box of B x for x in [0,1)^n, B = A - I, and
    keep the x = adj(B) k / det(B) that land in [0,1)^n.  det(B) and adj(B)
    come from fraction_gauss_jordan, not from ratlin.  Sorted tuple."""
    n = len(rows)
    b = [[rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    det_b, inv = fraction_gauss_jordan(b)
    adj = [[(det_b * x).numerator for x in row] for row in inv]
    ranges = [range(sum(min(v, 0) for v in row), sum(max(v, 0) for v in row) + 1)
              for row in b]
    points = []
    for k in itertools.product(*ranges):
        x = tuple(Fraction(sum(adj[i][j] * k[j] for j in range(n)), det_b)
                  for i in range(n))
        if all(0 <= xi < 1 for xi in x):
            points.append(x)
    return tuple(sorted(points))


# Reference Lie algebra kernels: the dense bracket over every structure
# constant key on unit vectors, as liealg had it before every bracket went
# through ad.  The tests compare liealg against these with == and on the
# exact exception messages.

def _unit(n: int, i: int) -> tuple:
    return tuple(Fraction(a == i) for a in range(n))


def zero_vec(n: int) -> tuple:
    return (Fraction(0),) * n


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def basis_bracket(algebra: LieAlgebra, i: int, j: int) -> tuple:
    """[e_i, e_j] as a dense coordinate vector, any i, j."""
    if i == j:
        return zero_vec(algebra.dim)
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    out = [Fraction(0)] * algebra.dim
    for k, c in algebra.brackets.get((i, j), {}).items():
        out[k] = sign * c
    return tuple(out)


def reference_bracket(algebra: LieAlgebra, x, y) -> tuple:
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ValueError(f"bracket of vectors of length {len(x)} and "
                         f"{len(y)} in an algebra of dim {n}")
    out = [Fraction(0)] * n
    for (i, j), comps in algebra.brackets.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        if coeff == 0:
            continue
        for k, c in comps.items():
            out[k] += coeff * c
    return tuple(out)


def _basis_cochain_value(subset: tuple, args: tuple) -> int:
    """e_S*(e_a1, ..., e_ap): the sign of the permutation that sorts args
    into the subset S, or 0 when args is not a rearrangement of S."""
    if tuple(sorted(args)) != subset:
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(args, 2))
    return -1 if inversions % 2 else 1


def reference_differential(algebra: LieAlgebra, module: Representation,
                           p: int) -> Matrix:
    """d_p: C^p -> C^(p+1) read straight off the formula in the cecomplex
    docstring, in dense Fraction lists.  Row (T, w), column (S, u) is
    coordinate w of (d omega)(e_T1, ..., e_T(p+1)) for omega = e_S* (x) e_u:

        sum_i (-1)^(i+1) rho(e_Ti) omega(..., e_Ti omitted, ...)
      + sum_{i<j} (-1)^(i+j) omega([e_Ti, e_Tj], ..., e_Ti, e_Tj omitted, ...)

    with positions 1-based; omega is evaluated on basis vectors by sorting
    its arguments, and brackets come from basis_bracket."""
    n, m = algebra.dim, module.dim
    sources = list(itertools.combinations(range(n), p))
    targets = list(itertools.combinations(range(n), p + 1))
    actions = [a.entries for a in module.actions]
    rows = [[Fraction(0)] * (len(sources) * m) for _ in range(len(targets) * m)]
    for t_index, big in enumerate(targets):
        for s_index, subset in enumerate(sources):
            value = [[Fraction(0)] * m for _ in range(m)]   # value[w][u]
            for i in range(p + 1):                # 0-based: sign (-1)^i
                coeff = (-1) ** i * _basis_cochain_value(
                    subset, big[:i] + big[i + 1:])
                for w in range(m if coeff else 0):
                    for u in range(m):
                        value[w][u] += coeff * actions[big[i]][w][u]
            for i, j in itertools.combinations(range(p + 1), 2):
                rest = tuple(x for a, x in enumerate(big) if a not in (i, j))
                coeff = sum((c * _basis_cochain_value(subset, (k,) + rest)
                             for k, c in enumerate(
                                 basis_bracket(algebra, big[i], big[j]))
                             if c),
                            Fraction(0))
                for u in range(m):
                    value[u][u] += (-1) ** (i + j) * coeff
            for w in range(m):
                rows[t_index * m + w][s_index * m:(s_index + 1) * m] = value[w]
    return Matrix(rows)


def reference_ad(algebra: LieAlgebra, x) -> Matrix:
    return Matrix([reference_bracket(algebra, x, _unit(algebra.dim, j))
                   for j in range(algebra.dim)]).transpose()


def reference_validate(algebra: LieAlgebra) -> None:
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (reference_bracket(algebra,
                                           basis_bracket(algebra, a, b),
                                           _unit(n, c))
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
                defect = tuple(sum(t, Fraction(0)) for t in zip(*terms))
                if not is_zero_vec(defect):
                    raise JacobiViolation(i, j, k, defect)


def reference_check_morphism(f) -> None:
    src, tgt, m = f.source, f.target, f.matrix
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            lhs = reference_bracket(tgt, m.transpose().row(i),
                                    m.transpose().row(j))
            rhs = m.apply(basis_bracket(src, i, j))
            defect = tuple(a - b for a, b in zip(lhs, rhs))
            if not is_zero_vec(defect):
                raise NotAMorphism(i, j, defect)


def reference_series(algebra: LieAlgebra, kind: str) -> SeriesReport:
    def span(us, vs):
        products = [reference_bracket(algebra, u, v) for u in us for v in vs]
        if not products:
            return []
        reduced, _, r = rref(Matrix(products))
        return [reduced.row(i) for i in range(r)]

    full = [_unit(algebra.dim, i) for i in range(algebra.dim)]
    current, dims = full, [algebra.dim]
    while True:
        nxt = span(full if kind == "lower_central" else current, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            break
        current = nxt
    return SeriesReport(kind=kind, dims=tuple(dims),
                        terminates_at_zero=dims[-1] == 0)


def reference_minimal_polynomial(m: Matrix) -> list:
    """The first linear dependence among I, m, m^2, ..., one solve_in_span
    per degree."""
    n = m.rows
    powers = [Matrix.identity(n)]
    while True:
        flat = [tuple(x for row in p.entries for x in row) for p in powers]
        target = powers[-1] * m
        try:
            coeffs = solve_in_span(flat, tuple(x for row in target.entries
                                               for x in row))
        except NotInSpan:
            if len(powers) > n:
                raise
            powers.append(target)
            continue
        return ratlin._poly_trim([-c for c in coeffs] + [Fraction(1)])


def is_squarefree(p) -> bool:
    return len(ratlin._poly_gcd(p, ratlin._poly_derivative(p))) == 1


def is_nilpotent_matrix(m: Matrix) -> bool:
    if not m.is_square():
        raise ValueError("nilpotency test of non-square matrix")
    power = m
    for _ in range(m.rows):
        if power.is_zero():
            return True
        power = power * m
    return power.is_zero()


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


def random_intertwiner(rng, f, module) -> Intertwiner:
    """A random combination of a basis of the m x m matrices xi with
    xi rho(f e_i) = rho(e_i) xi, the kernel of those equations on the m^2
    entries of xi."""
    m, rho = module.dim, module.actions
    equations = []
    for i in range(f.source.dim):
        image = Matrix.zero(m, m)
        for k in range(f.target.dim):
            image = image + f.matrix[k, i] * rho[k]
        for a in range(m):
            for c in range(m):
                row = [Fraction(0)] * (m * m)
                for b in range(m):
                    row[a * m + b] += image[b, c]
                    row[b * m + c] -= rho[i][a, b]
                equations.append(row)
    kernel, _ = kernel_and_image(Matrix(equations))
    xi = [Fraction(0)] * (m * m)
    for v in kernel.entries:
        c = rng.randint(-2, 2)
        xi = [x + c * y for x, y in zip(xi, v)]
    xi = Intertwiner(morphism=f, module=module, matrix=Matrix(
        [xi[a * m:(a + 1) * m] for a in range(m)]))
    validate_intertwiner(xi)
    return xi

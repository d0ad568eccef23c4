"""Chevalley-Eilenberg cochain complex with module coefficients.

Degree p cochains are spanned by pairs (S, u): S a p-subset of basis indices
(lexicographic order, indexed and signed by ratlin.subset_tables as for the
exterior powers), u a module basis index; the basis index is
subset_rank * module_dim + u (subset-major).  The differential of a cochain
omega, evaluated on x_1 .. x_{p+1} (positions 1-based), is

    sum_i (-1)^(i+1) rho(x_i) omega(..., x_i omitted, ...)
  + sum_{i<j} (-1)^(i+j) omega([x_i, x_j], ..., x_i, x_j omitted, ...)

d o d = 0 is verified exactly when the complex is built; with the trivial
module the first sum drops out and d is determined by the brackets alone.
Like the representative and cocycle-image checks and the chain-map check of
a map that is not diagonal, it goes through ratlin.vanishes, row by row,
stopping at the first nonzero row, without building the product; a
diagonal chain map is checked on its weights and traces (induced_chain_map).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .liealg import LieAlgebra, LieMorphism, integer_brackets
from .ratlin import (InternalConsistencyFailure, InvalidInput, Matrix,
                     Record, exterior_powers, format_rational,
                     kernel_and_image, kron, packed_row, quotient_basis,
                     subset_tables, vanishes)
from .repn import Intertwiner, Representation


class CochainComplex(Record):
    algebra: LieAlgebra
    module: Representation
    dims: tuple            # dims[p] = C(n,p) * module dim, p = 0..n
    differentials: tuple   # differentials[p]: C^p -> C^(p+1), p = 0..n-1

    @property
    def top_degree(self) -> int:
        return self.algebra.dim

    @cached_property
    def supports(self) -> tuple:
        """supports[p] = (rows, cols): the row and the column index of each
        nonzero of d_p, row-major, for the chain-map check of diagonal maps.
        Built on first read and kept with the complex, not in == or repr."""
        out = []
        for d in self.differentials:
            rows, cols = [], []
            for i, row in enumerate(d.sparse):
                rows += [i] * len(row)
                cols += [j for j, _ in row]
            out.append((tuple(rows), tuple(cols)))
        return tuple(out)


def build_complex(algebra: LieAlgebra, module: Representation) -> CochainComplex:
    """Assemble all differentials and verify d o d = 0 exactly."""
    if module.algebra != algebra:
        raise InvalidInput("module is not over the given algebra")
    n = algebra.dim
    m = module.dim
    dims = tuple(comb(n, p) * m for p in range(n + 1))
    differentials = tuple(_differential(algebra, module, p) for p in range(n))
    for p in range(n - 1):
        if not vanishes([(1, differentials[p + 1], differentials[p])]):
            raise InternalConsistencyFailure(f"d squared nonzero at degree {p}")
    return CochainComplex(algebra=algebra, module=module, dims=dims,
                          differentials=differentials)


def _differential(algebra: LieAlgebra, module: Representation, p: int) -> Matrix:
    """Matrix of d_p: C^p -> C^(p+1) in the subset-major bases, summed in
    integers over the lcm of the structure-constant and action denominators.
    Both sums walk the grow tables of ratlin.subset_tables, places counted
    from 0.  Each T = S + x puts (-1)^a rho(e_x) at block (T, S), a the
    place of x in T.  Each T = R + i + j, i < j, puts (-1)^(a+b+c) l I at
    block (T, R + k) for each l e_k in [e_i, e_j] with k not in R: a and b
    are the places of i and j in T, c that of k in R + k."""
    n, m = algebra.dim, module.dim
    _, grow, targets = subset_tables(n)[p + 1]
    rows = [{} for _ in range(len(targets) * m)]
    brackets, bracket_den = integer_brackets(algebra)
    den = lcm(bracket_den, *[action.den for action in module.actions])

    # first sum: remove one argument, act by it on the module
    for r, faces in enumerate(grow):
        for x, (t, odd) in faces.items():
            action = module.actions[x]
            scale = (-1 if odd else 1) * (den // action.den)
            for w, arow in enumerate(action.sparse):
                acc = rows[t * m + w]
                for u, value in arow:
                    col, term = r * m + u, scale * value
                    acc[col] = acc[col] + term if col in acc else term
    # second sum: bracket keys have i < j, so i sits at the same place in
    # R + i as in T; k in R would repeat an argument, which gives 0
    for faces in subset_tables(n)[p][1]:      # none in degree 0
        for i, (ri, oi) in faces.items():
            for j, (t, oj) in grow[ri].items():
                for k, c in brackets.get((i, j), {}).items():
                    if k in faces:
                        col, ok = faces[k]
                        term = (-c if oi ^ oj ^ ok else c) * (den // bracket_den)
                        for u in range(m):
                            acc, cell = rows[t * m + u], col * m + u
                            acc[cell] = acc[cell] + term if cell in acc else term
    return Matrix._of(tuple(packed_row(acc) for acc in rows), len(grow) * m,
                      den)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

class CohomologyData(Record):
    """Per-degree bases, all deterministic, each a Matrix whose rows are the
    basis vectors in C^p.

    representative_basis extends coboundary_basis to a basis of the cocycle
    space: the cocycle basis rows the greedy left-to-right extension picks
    (ratlin.quotient_basis).  Its classes form the basis used for induced
    maps.  Two transposes, built once with the cohomology and not in == or
    repr, serve induced_cohomology_map: transposed_representatives, the
    representatives as columns, and transposed_coordinates, whose product
    with a column cocycle is its coordinates on the classes.
    """
    degree: int
    betti: int
    cocycle_basis: Matrix
    coboundary_basis: Matrix
    representative_basis: Matrix
    transposed_representatives: Matrix
    transposed_coordinates: Matrix
    _hidden = ("transposed_representatives", "transposed_coordinates")


def cohomology(complex_: CochainComplex) -> list[CohomologyData]:
    """One rref per differential d_p gives both the degree-p cocycles (its
    kernel) and the degree-(p+1) coboundaries (its image); one small rref
    per degree picks the representatives.  Per degree the kernel and image
    of d_p are checked to have dims[p] rows between them (rank-nullity),
    and the representatives to be as many as the Betti number, cocycles
    (d_p reps^T = 0) and inverted by the class coordinates (coords^T
    reps^T = I), each by ratlin.vanishes, building no product."""
    dims, differentials = complex_.dims, complex_.differentials
    pairs = [kernel_and_image(d) for d in differentials]
    cocycles = [kernel for kernel, _ in pairs] + [Matrix.identity(dims[-1])]
    coboundaries = [Matrix.zero(0, dims[0])] + [image for _, image in pairs]
    out = []
    for p, (z, b) in enumerate(zip(cocycles, coboundaries)):
        if p < len(pairs) and z.rows + coboundaries[p + 1].rows != dims[p]:
            raise InternalConsistencyFailure(
                f"rank-nullity fails at degree {p}: kernel {z.rows} + image "
                f"{coboundaries[p + 1].rows} != dim C^p {dims[p]}")
        reps, coordinates, rank = quotient_basis(z, b)
        betti = z.rows - b.rows
        if rank != b.rows:
            raise InternalConsistencyFailure(
                f"{reps.rows} representatives but betti {betti} at degree {p}")
        columns = reps.transpose()
        if p < len(differentials) and \
                not vanishes([(1, differentials[p], columns)]):
            raise InternalConsistencyFailure(
                f"a representative is not a cocycle at degree {p}")
        coordinates = coordinates.transpose()
        if not vanishes([(1, coordinates, columns),
                         (-1, Matrix.identity(reps.rows), None)]):
            raise InternalConsistencyFailure(
                f"class coordinates do not invert the representatives at "
                f"degree {p}")
        out.append(CohomologyData(
            degree=p, betti=betti, cocycle_basis=z, coboundary_basis=b,
            representative_basis=reps, transposed_representatives=columns,
            transposed_coordinates=coordinates))
    return out


def betti_numbers(complex_: CochainComplex) -> tuple:
    return tuple(data.betti for data in cohomology(complex_))


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

class ChainMap(Record):
    """Degreewise maps F_p = Lambda^p(f transpose) (x) xi, commuting with d.
    traces[p] = tr F_p, taken on first read and kept, not in == or repr."""
    complex: CochainComplex
    blocks: tuple  # blocks[p]: C^p -> C^p

    @cached_property
    def traces(self) -> tuple:
        return tuple(block.trace() for block in self.blocks)


def induced_chain_map(complex_: CochainComplex, f: LieMorphism,
                      xi: Intertwiner) -> ChainMap:
    """Build all degree blocks and verify the chain-map property exactly.

    A diagonal f and xi give diagonal blocks, lambda_S mu_u at (S, u) for
    lambda_S the product of f's diagonal over S.  _weights builds them as
    integers w_p over f.den^p xi.den; in lowest terms they have the value
    and stored form of the Kronecker products below.  Entry (i, j) of
    F_(p+1) d_p - d_p F_p is then d_p[i][j] (F_(p+1)[i][i] - F_p[j][j]),
    so the check compares w_(p+1)[i] with f.den w_p[j] at each nonzero
    (i, j) of d_p, listed by complex_.supports.  Then tr F_p = e_p(f) tr xi
    in integers, e_p from prod_i (1 + lambda_i t) over f.den^p and tr xi as
    sum(mu) over xi.den, ties the blocks to f and xi, as neither the
    chain-map check nor Hopf does.  Any other map takes Lambda^p(f^T) (x) xi
    and vanishes.
    """
    n = complex_.top_degree
    if f.source.dim != n or f.target.dim != n:
        raise InvalidInput("morphism dimension does not match the complex")
    lam, mu = _diagonal(f.matrix), _diagonal(xi.matrix)
    diagonal = lam is not None and mu is not None
    f_den, xi_den = f.matrix.den, xi.matrix.den
    if diagonal:
        weights = _weights(lam, mu, n)
        dens = [f_den ** p * xi_den for p in range(n + 1)]
        blocks = tuple(map(_diagonal_block, weights, dens))
        below = weights if f_den == 1 else \
            [[f_den * x for x in w] for w in weights[:-1]]
        verdicts = (list(map(weights[p + 1].__getitem__, rows))
                    == list(map(below[p].__getitem__, cols))
                    for p, (rows, cols) in enumerate(complex_.supports))
    else:
        ft = f.matrix.transpose()
        blocks = tuple(kron(power, xi.matrix) for power in exterior_powers(ft))
        verdicts = (vanishes([(1, blocks[p + 1], d), (-1, d, blocks[p])])
                    for p, d in enumerate(complex_.differentials))
    for p, commutes in enumerate(verdicts):
        if not commutes:
            raise InternalConsistencyFailure(
                f"induced map does not commute with d at degree {p}")
    chain_map = ChainMap(complex=complex_, blocks=blocks)
    if diagonal:
        e = [1]
        for x in lam:
            e = [a + x * b for a, b in zip(e + [0], [0] + e)]
        tr_xi = sum(mu)
        for p, (trace, e_p) in enumerate(zip(chain_map.traces, e)):
            if trace.numerator * dens[p] != trace.denominator * e_p * tr_xi:
                expected = Fraction(e_p * tr_xi, dens[p])
                raise InternalConsistencyFailure(
                    f"cochain trace {format_rational(trace)} at degree {p} "
                    f"!= e_{p}(f) tr xi = {format_rational(expected)}")
    return chain_map


def _diagonal(m: Matrix) -> list | None:
    """The diagonal numerators of m if its every row i is () or ((i, x),),
    else None."""
    out = []
    for i, row in enumerate(m.sparse):
        if not row:
            out.append(0)
        elif len(row) == 1 and row[0][0] == i:
            out.append(row[0][1])
        else:
            return None
    return out


def _weights(lam: list, mu: list, n: int) -> list:
    """w_p[S m + u] = lambda_S mu_u for p = 0..n, lambda_S = lambda_s
    lambda_(S - s) for (s, S - s) the heads of subset_tables(n)."""
    products, out = [1], [mu]
    for heads, _, _ in subset_tables(n)[1:]:
        products = [lam[s] * products[face] for s, face in heads]
        out.append(products if mu == [1]
                   else [x * y for x in products for y in mu])
    return out


def _diagonal_block(weights: list, den: int) -> Matrix:
    """diag(weights) / den in lowest terms."""
    g = gcd(den, *weights)
    return Matrix._canonical(tuple([((i, x // g),) if x else ()
                                    for i, x in enumerate(weights)]),
                             len(weights), den // g)


def induced_cohomology_map(cohom: list[CohomologyData],
                           chain_map: ChainMap) -> list[Matrix]:
    """Matrix of the induced map on each H^p in the representative basis:
    the images of the representatives (_cocycle_images), each checked to be
    a cocycle, d_p * X = 0, then their classes (_classes).  No rref and no
    cochain-sized transpose runs here."""
    differentials = chain_map.complex.differentials
    images = _cocycle_images(cohom, chain_map)
    for p, (d, x) in enumerate(zip(differentials, images)):
        if not vanishes([(1, d, x)]):
            raise InternalConsistencyFailure(
                f"induced cocycle leaves the cocycle space at degree {p}")
    return _classes(cohom, images)


def _cocycle_images(cohom: list[CohomologyData],
                    chain_map: ChainMap) -> list[Matrix]:
    """X_p = F_p * reps^T, whose columns are the images F_p h of the
    representatives, with the transpose built once with the cohomology."""
    return [block * data.transposed_representatives
            for block, data in zip(chain_map.blocks, cohom)]


def _classes(cohom: list[CohomologyData], images: list) -> list[Matrix]:
    """H_p = coords^T * X_p: the cocycle images on the classes, column by
    column.  Only a cocycle X_p has a class, so the caller vouches for
    d_p * X_p = 0."""
    return [data.transposed_coordinates * x
            for data, x in zip(cohom, images)]

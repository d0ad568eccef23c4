"""Chevalley-Eilenberg cochain complex with module coefficients.

Degree p cochains are spanned by pairs (S, u): S a p-subset of basis indices
(lexicographic order), u a module basis index; the basis index is
subset_rank * module_dim + u (subset-major).  The differential of a cochain
omega, evaluated on x_1 .. x_{p+1} (positions 1-based), is

    sum_i (-1)^(i+1) rho(x_i) omega(..., x_i omitted, ...)
  + sum_{i<j} (-1)^(i+j) omega([x_i, x_j], ..., x_i, x_j omitted, ...)

d o d = 0 is verified exactly when the complex is built; with the trivial
module the first sum drops out and d is determined by the brackets alone.
Like the chain-map and cocycle checks, it goes through ratlin.vanishes, row
by row, stopping at the first nonzero row, without building the product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, lcm

from .liealg import LieAlgebra, LieMorphism, integer_brackets
from .ratlin import (InternalConsistencyFailure, InvalidInput, Matrix,
                     NotInSpan, exterior_powers, kernel_and_image, kron,
                     p_subsets, packed_row, quotient_basis, vanishes)
from .repn import Intertwiner, Representation


class ModuleAlgebraMismatch(InvalidInput):
    pass


class InternalDSquareNonzero(ArithmeticError):
    """d o d != 0: unreachable for a valid algebra/module pair; reaching it
    means either an implementation bug or unvalidated input."""
    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"d squared nonzero at degree {degree}")


class ChainMapViolation(ValueError):
    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"induced map does not commute with d at degree {degree}")


@dataclass(frozen=True)
class CochainComplex:
    algebra: LieAlgebra
    module: Representation
    dims: tuple            # dims[p] = C(n,p) * module dim, p = 0..n
    differentials: tuple   # differentials[p]: C^p -> C^(p+1), p = 0..n-1

    @property
    def top_degree(self) -> int:
        return self.algebra.dim


def build_complex(algebra: LieAlgebra, module: Representation) -> CochainComplex:
    """Assemble all differentials and verify d o d = 0 exactly."""
    if module.algebra != algebra:
        raise ModuleAlgebraMismatch("module is not over the given algebra")
    n = algebra.dim
    m = module.dim
    dims = tuple(comb(n, p) * m for p in range(n + 1))
    differentials = tuple(_differential(algebra, module, p) for p in range(n))
    for p in range(n - 1):
        if not vanishes([(1, differentials[p + 1], differentials[p])]):
            raise InternalDSquareNonzero(p)
    return CochainComplex(algebra=algebra, module=module, dims=dims,
                          differentials=differentials)


def _differential(algebra: LieAlgebra, module: Representation, p: int) -> Matrix:
    """Matrix of d_p: C^p -> C^(p+1) in the subset-major bases, summed in
    integers over the lcm of the structure-constant and action denominators."""
    n, m = algebra.dim, module.dim
    sources = p_subsets(n, p)
    targets = p_subsets(n, p + 1)
    src_rank = {s: a for a, s in enumerate(sources)}
    rows = [{} for _ in range(len(targets) * m)]
    brackets, bracket_den = integer_brackets(algebra)
    den = lcm(bracket_den, *[action.den for action in module.actions])

    for t_rank, big in enumerate(targets):
        row0 = t_rank * m
        # first sum: remove one argument, act by it on the module
        for a, x in enumerate(big):          # a is 0-based; formula uses a+1
            rest = big[:a] + big[a + 1:]
            action = module.actions[x]       # (-1)^((a+1)+1) = -1, a odd
            scale = (-1) ** a * (den // action.den)
            col0 = src_rank[rest] * m
            for w, arow in enumerate(action.sparse):
                acc = rows[row0 + w]
                for u, value in arow:
                    col, term = col0 + u, scale * value
                    acc[col] = acc[col] + term if col in acc else term
        # second sum: bracket two arguments back into the cochain
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                comps = brackets.get((big[a], big[b]), {})
                if not comps:
                    continue
                rest = tuple(x for idx, x in enumerate(big) if idx not in (a, b))
                for k, c in comps.items():
                    if k in rest:
                        continue  # repeated argument, alternating form gives 0
                    pos = sum(1 for r in rest if r < k)
                    merged = tuple(sorted(rest + (k,)))
                    # (-1)^((a+1)+(b+1)) for the pair, (-1)^pos to sort k in
                    term = (-c if (a + b + pos) % 2 == 1 else c) * (
                        den // bracket_den)
                    col0 = src_rank[merged] * m
                    for u in range(m):
                        acc, col = rows[row0 + u], col0 + u
                        acc[col] = acc[col] + term if col in acc else term
    return Matrix._of(tuple(packed_row(acc) for acc in rows), len(sources) * m,
                      den)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyData:
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
    transposed_representatives: Matrix = field(compare=False, repr=False)
    transposed_coordinates: Matrix = field(compare=False, repr=False)


def cohomology(complex_: CochainComplex) -> list[CohomologyData]:
    """One rref per differential d_p gives both the degree-p cocycles (its
    kernel) and the degree-(p+1) coboundaries (its image); one small rref
    per degree picks the representatives and certifies their count."""
    dims = complex_.dims
    pairs = [kernel_and_image(d) for d in complex_.differentials]
    cocycles = [kernel for kernel, _ in pairs] + [Matrix.identity(dims[-1])]
    coboundaries = [Matrix.zero(0, dims[0])] + [image for _, image in pairs]
    out = []
    for p, (z, b) in enumerate(zip(cocycles, coboundaries)):
        reps, coordinates, rank = quotient_basis(z, b)
        betti = z.rows - b.rows
        if rank != b.rows:
            raise InternalConsistencyFailure(
                f"{reps.rows} representatives but betti {betti} at degree {p}")
        out.append(CohomologyData(
            degree=p, betti=betti, cocycle_basis=z, coboundary_basis=b,
            representative_basis=reps,
            transposed_representatives=reps.transpose(),
            transposed_coordinates=coordinates.transpose()))
    return out


def betti_numbers(complex_: CochainComplex) -> tuple:
    return tuple(data.betti for data in cohomology(complex_))


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMap:
    """Degreewise maps F_p = Lambda^p(f transpose) (x) xi, commuting with d."""
    complex: CochainComplex
    blocks: tuple  # blocks[p]: C^p -> C^p


def induced_chain_map(complex_: CochainComplex, f: LieMorphism,
                      xi: Intertwiner) -> ChainMap:
    """Build all degree blocks and verify the chain-map property exactly."""
    n = complex_.top_degree
    if f.source.dim != n or f.target.dim != n:
        raise ModuleAlgebraMismatch("morphism dimension does not match the complex")
    ft = f.matrix.transpose()
    blocks = tuple(kron(power, xi.matrix) for power in exterior_powers(ft))
    for p in range(n):
        d = complex_.differentials[p]
        if not vanishes([(1, blocks[p + 1], d), (-1, d, blocks[p])]):
            raise ChainMapViolation(p)
    return ChainMap(complex=complex_, blocks=blocks)


def induced_cohomology_map(cohom: list[CohomologyData],
                           chain_map: ChainMap) -> list[Matrix]:
    """Matrix of the induced map on each H^p in the representative basis.

    The columns of X = F_p * reps^T are the images F_p h of the
    representatives.  Each is checked to be a cocycle, d_p * X = 0, and
    H_p = coords^T * X takes them to the classes, column by column, with
    the transposes built once with the cohomology: no rref and no
    cochain-sized transpose runs here.
    """
    differentials = chain_map.complex.differentials
    out = []
    for p, data in enumerate(cohom):
        images = chain_map.blocks[p] * data.transposed_representatives
        if p < len(differentials) and \
                not vanishes([(1, differentials[p], images)]):
            raise InternalConsistencyFailure(
                f"induced cocycle leaves the cocycle space at degree {p}"
            ) from NotInSpan("an image of a representative is not a cocycle")
        out.append(data.transposed_coordinates * images)
    return out

"""Chevalley-Eilenberg cochain complex with module coefficients.

Degree p cochains are spanned by pairs (S, u): S a p-subset of basis indices
(lexicographic order), u a module basis index; the basis index is
subset_rank * module_dim + u (subset-major).  The differential of a cochain
omega, evaluated on x_1 .. x_{p+1} (positions 1-based), is

    sum_i (-1)^(i+1) rho(x_i) omega(..., x_i omitted, ...)
  + sum_{i<j} (-1)^(i+j) omega([x_i, x_j], ..., x_i, x_j omitted, ...)

d o d = 0 is verified exactly when the complex is built; with the trivial
module the first sum drops out and d is determined by the brackets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .liealg import LieAlgebra, LieMorphism
from .ratlin import (InternalConsistencyFailure, InvalidInput, Matrix,
                     NotInSpan, complete_basis, exterior_powers,
                     kernel_and_image, kron, p_subsets, packed_row,
                     solve_all_in_span)
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
        if not (differentials[p + 1] * differentials[p]).is_zero():
            raise InternalDSquareNonzero(p)
    return CochainComplex(algebra=algebra, module=module, dims=dims,
                          differentials=differentials)


def _differential(algebra: LieAlgebra, module: Representation, p: int) -> Matrix:
    """Matrix of d_p: C^p -> C^(p+1) in the subset-major bases."""
    n, m = algebra.dim, module.dim
    sources = p_subsets(n, p)
    targets = p_subsets(n, p + 1)
    src_rank = {s: a for a, s in enumerate(sources)}
    rows = [{} for _ in range(len(targets) * m)]

    for t_rank, big in enumerate(targets):
        row0 = t_rank * m
        # first sum: remove one argument, act by it on the module
        for a, x in enumerate(big):          # a is 0-based; formula uses a+1
            rest = big[:a] + big[a + 1:]
            sign = 1 if a % 2 == 0 else -1   # (-1)^((a+1)+1)
            col0 = src_rank[rest] * m
            for w, arow in enumerate(module.actions[x].sparse):
                acc = rows[row0 + w]
                for u, value in arow:
                    acc[col0 + u] = acc.get(col0 + u, 0) + sign * value
        # second sum: bracket two arguments back into the cochain
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                comps = algebra.brackets.get((big[a], big[b]), {})
                if not comps:
                    continue
                rest = tuple(x for idx, x in enumerate(big) if idx not in (a, b))
                pair_sign = -1 if (a + b) % 2 == 1 else 1  # (-1)^((a+1)+(b+1))
                for k, c in comps.items():
                    if k in rest:
                        continue  # repeated argument, alternating form gives 0
                    pos = sum(1 for r in rest if r < k)
                    merged = tuple(sorted(rest + (k,)))
                    sign = pair_sign * (1 if pos % 2 == 0 else -1)
                    col0 = src_rank[merged] * m
                    for u in range(m):
                        acc = rows[row0 + u]
                        acc[col0 + u] = acc.get(col0 + u, 0) + sign * c
    return Matrix._of(tuple(packed_row(acc) for acc in rows), len(sources) * m)


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyData:
    """Per-degree bases, all deterministic, each a Matrix whose rows are the
    basis vectors in C^p.

    representative_basis extends coboundary_basis to a basis of the cocycle
    space: the cocycles that are pivot columns past the coboundaries in one
    rref of [coboundaries | cocycles], which is the set the greedy
    left-to-right extension over the kernel basis picks.  Its classes form
    the basis used for induced cohomology maps.
    """
    degree: int
    betti: int
    cocycle_basis: Matrix
    coboundary_basis: Matrix
    representative_basis: Matrix


def cohomology(complex_: CochainComplex) -> list[CohomologyData]:
    """One rref per differential d_p gives both the degree-p cocycles (its
    kernel) and the degree-(p+1) coboundaries (its image)."""
    dims = complex_.dims
    pairs = [kernel_and_image(d) for d in complex_.differentials]
    cocycles = [kernel for kernel, _ in pairs] + [Matrix.identity(dims[-1])]
    coboundaries = [Matrix.zero(0, dims[0])] + [image for _, image in pairs]
    out = []
    for p, (z, b) in enumerate(zip(cocycles, coboundaries)):
        reps = complete_basis(b, z)
        betti = z.rows - b.rows
        if reps.rows != betti:
            raise InternalConsistencyFailure(
                f"{reps.rows} representatives but betti {betti} at degree {p}")
        out.append(CohomologyData(degree=p, betti=betti, cocycle_basis=z,
                                  coboundary_basis=b,
                                  representative_basis=reps))
    # Euler characteristic certificate: alternating sums over bases and over
    # cochain dimensions must agree.
    lhs = sum((-1) ** p * data.betti for p, data in enumerate(out))
    rhs = sum((-1) ** p * d for p, d in enumerate(dims))
    if lhs != rhs:
        raise InternalConsistencyFailure("Euler characteristic mismatch")
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
        if blocks[p + 1] * d != d * blocks[p]:
            raise ChainMapViolation(p)
    return ChainMap(complex=complex_, blocks=blocks)


def induced_cohomology_map(cohom: list[CohomologyData],
                           chain_map: ChainMap) -> list[Matrix]:
    """Matrix of the induced map on each H^p in the representative basis.

    The rows of reps * F_p^T are the images F_p h of the representatives.
    Each is a cocycle, hence expressible in the independent rows of
    (representatives | coboundaries); the representative block of its
    coefficients is a column of the map.  All images of a degree are solved
    in one rref.  NotInSpan here is an internal failure.
    """
    out = []
    for p, data in enumerate(cohom):
        reps = data.representative_basis
        images = reps * chain_map.blocks[p].transpose()
        try:
            coeffs = solve_all_in_span(reps.vstack(data.coboundary_basis),
                                       images)
        except NotInSpan as exc:
            raise InternalConsistencyFailure(
                f"induced cocycle leaves the cocycle space at degree {p}"
            ) from exc
        out.append(coeffs.submatrix(range(reps.rows), range(reps.rows)))
    return out

"""Twisted Lefschetz numbers and the determinant linearization.

Three numbers are computed side by side and never collapsed:

  * the cochain-level alternating trace  sum_p (-1)^p tr F_p,
  * the cohomology-level alternating trace over induced maps on H^p,
  * det(I - A) for the designated linear map A (by default the morphism
    matrix itself).

The first two must agree for every valid input (Hopf trace identity for an
exact-category chain map); a mismatch raises.  The third is the linearized
prediction and may legitimately differ, e.g. for twisted coefficients whose
intertwiner has trace other than 1 — the report just records the facts.

Only the induced maps depend on the map, and a report builds nothing else.
Once per coefficient system (g, V), an immutable value, coefficient_system
caches, for the MEMO_SIZE most recently used ones: the validated complex,
its cohomology and the transposed representatives and class coordinates
that the induced maps multiply by, so the Jacobi, module, d o d,
rank-nullity, quotient rank, representative (d_p reps^T = 0 and coords^T
reps^T = I) and (trivial module, nilpotent algebra) Poincare duality checks
run once per value; the complex keeps the supports of its differentials
from the first report of a diagonal map.  Once per dimension n: the
p-subset tables (ratlin.subset_tables) and the torus oracle's abelian
algebra with its trivial module and basis ads.  On every report: the
morphism and intertwiner checks, induced_chain_map's chain-map and
(diagonal maps) cochain-trace checks on the traces the report reads, the
Hopf check, and products of the map with what is cached.  The report takes
coords^T (F_p reps^T) with no cocycle-image check: F_p is a chain map on
the cached complex and the representatives are its cocycles, so d_p F_p h
= F_(p+1) d_p h = 0.  How the blocks are built, from weights for a
diagonal f and xi or as Kronecker products, is induced_chain_map's choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .cecomplex import (CochainComplex, _classes, _cocycle_images,
                        build_complex, cohomology, induced_chain_map)
from .liealg import (LieAlgebra, LieMorphism, check_morphism, is_nilpotent,
                     validate)
from .ratlin import (MEMO_SIZE, InternalConsistencyFailure, InvalidInput,
                     Matrix, Record, det_i_minus, format_rational,
                     format_vector)
from .repn import Intertwiner, Representation, validate_intertwiner, validate_rep


class LefschetzReport(Record):
    betti: tuple
    dims: tuple
    cohomology_maps: tuple        # induced map on each H^p, representative basis
    cohomology_traces: tuple      # trace of the induced map on each H^p
    cochain_traces: tuple         # trace of F_p on each C^p
    lefschetz: Fraction           # alternating sum of cohomology_traces
    hopf: Fraction                # alternating sum of cochain_traces
    det_i_minus_a: Fraction
    agree: bool                   # lefschetz == det_i_minus_a
    note: str = ""                # labels legitimate disagreement as expected


def linearization(a: Matrix) -> Fraction:
    """det(I - A), the fixed-point count of the linearized map."""
    return det_i_minus(a)


def alternating_sum(values) -> Fraction:
    """The sum of (-1)^p values[p], ints or Fractions, as one integer sum
    over the lcm of their denominators."""
    values = list(values)
    den = lcm(*[v.denominator for v in values])
    scaled = [v.numerator * (den // v.denominator) for v in values]
    return Fraction(sum(scaled[::2]) - sum(scaled[1::2]), den)


class CoefficientSystem:
    """What a report on (g, V) needs that does not depend on the map: the
    complex, checked d o d = 0, and its cohomology, checked by quotient
    rank.  Nilpotency of g is decided on first use."""

    def __init__(self, complex_: CochainComplex, cohomology: tuple):
        self.complex, self.cohomology = complex_, cohomology

    @cached_property
    def nilpotent(self) -> bool:
        return is_nilpotent(self.complex.algebra)


@lru_cache(maxsize=MEMO_SIZE)
def coefficient_system(algebra: LieAlgebra,
                       module: Representation) -> CoefficientSystem:
    """The validated complex and cohomology of (algebra, module), built on
    the first call for their value.  A nilpotent algebra is unimodular, so
    with the trivial module its Betti numbers are checked symmetric
    (Poincare duality).  An exception is never cached, so invalid input
    raises on every call."""
    if module.algebra != algebra:
        raise InvalidInput("module is not over the given algebra")
    validate(algebra)
    validate_rep(module)
    complex_ = build_complex(algebra, module)
    system = CoefficientSystem(complex_, tuple(cohomology(complex_)))
    if (module.dim == 1 and all(a.is_zero() for a in module.actions)
            and system.nilpotent):
        betti = [d.betti for d in system.cohomology]
        if betti != betti[::-1]:
            raise InternalConsistencyFailure(
                f"Betti numbers {betti} of a nilpotent algebra with the "
                "trivial module are not symmetric (Poincare duality)")
    return system


def twisted_lefschetz(algebra: LieAlgebra, module: Representation,
                      morphism: LieMorphism, intertwiner: Intertwiner,
                      linearization_matrix: Matrix | None = None
                      ) -> LefschetzReport:
    """Full pipeline: validate, build the complex, induce maps on cohomology,
    and compare the alternating trace with det(I - A).

    linearization_matrix defaults to the morphism matrix.  The inputs are
    checked in one order: the morphism, on every call and before anything
    is built; the algebra and module with their coefficient system, once
    per value; then the intertwiner, on every call.
    """
    if (morphism.source, morphism.target) != (algebra, algebra):
        raise InvalidInput("morphism is not over the given algebra")
    if (intertwiner.morphism, intertwiner.module) != (morphism, module):
        raise InvalidInput("intertwiner is over another map or module")
    check_morphism(morphism)
    system = coefficient_system(algebra, module)
    validate_intertwiner(intertwiner)
    chain_map = induced_chain_map(system.complex, morphism, intertwiner)
    cohom = system.cohomology
    # a chain map on system.complex takes the representatives, cocycles of
    # that complex, to cocycles, so induced_cohomology_map's check holds
    maps = _classes(cohom, _cocycle_images(cohom, chain_map))

    cohom_traces = tuple(m.trace() for m in maps)
    lefschetz_number = alternating_sum(cohom_traces)
    hopf = alternating_sum(chain_map.traces)
    if lefschetz_number != hopf:
        raise InternalConsistencyFailure(
            "Hopf trace identity failed: cochain-level alternating trace "
            f"{format_rational(hopf)} != cohomology-level "
            f"{format_rational(lefschetz_number)} (cochain traces "
            f"{format_vector(chain_map.traces)}, cohomology traces "
            f"{format_vector(cohom_traces)})")

    a = linearization_matrix if linearization_matrix is not None else morphism.matrix
    det_value = linearization(a)
    agree = lefschetz_number == det_value
    note = ""
    if not agree:
        if not system.nilpotent:
            note = ("disagreement is expected: the algebra is not nilpotent, "
                    "so cohomology at the algebra level need not compute the "
                    "manifold side")
        elif intertwiner.matrix.trace() != 1:
            note = ("disagreement is expected: twisted coefficients with "
                    "intertwiner trace != 1 rescale the cohomological side")
    return LefschetzReport(
        betti=tuple(d.betti for d in cohom),
        dims=system.complex.dims,
        cohomology_maps=tuple(maps),
        cohomology_traces=cohom_traces,
        cochain_traces=chain_map.traces,
        lefschetz=lefschetz_number,
        hopf=hopf,
        det_i_minus_a=det_value,
        agree=agree,
        note=note,
    )

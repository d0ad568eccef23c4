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
that the induced maps multiply by, so the Jacobi, module, d o d and
quotient rank checks run once per value.  Once per dimension n: the
subset tables of the exterior powers (ratlin) and the torus oracle's
abelian algebra with its trivial module and basis ads.  On every report:
the morphism, intertwiner, chain-map, cocycle-image and Hopf checks, and
products of the map with what is cached, transposing only the n x n map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cecomplex import (CochainComplex, ModuleAlgebraMismatch, build_complex,
                        cohomology, induced_chain_map, induced_cohomology_map)
from .liealg import (MEMO_SIZE, LieAlgebra, LieMorphism, check_morphism,
                     is_nilpotent, validate)
from .ratlin import InternalConsistencyFailure, Matrix, det_i_minus
from .repn import Intertwiner, Representation, validate_intertwiner, validate_rep


@dataclass(frozen=True)
class LefschetzReport:
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
    total = Fraction(0)
    for p, v in enumerate(values):
        total = total - v if p % 2 else total + v
    return total


class CoefficientSystem:
    """What a report on (g, V) needs that does not depend on the map: the
    complex, checked d o d = 0, and its cohomology, checked by quotient
    rank.  Nilpotency of g is decided on first use.
    A plain class: every CLI process would build a dataclass at import."""

    def __init__(self, complex_: CochainComplex, cohomology: tuple):
        self.complex, self.cohomology = complex_, cohomology

    @cached_property
    def nilpotent(self) -> bool:
        return is_nilpotent(self.complex.algebra)


@lru_cache(maxsize=MEMO_SIZE)
def coefficient_system(algebra: LieAlgebra,
                       module: Representation) -> CoefficientSystem:
    """The validated complex and cohomology of (algebra, module), built on
    the first call for their value.  An exception is never cached, so
    invalid input raises on every call."""
    if module.algebra != algebra:
        raise ModuleAlgebraMismatch("module is not over the given algebra")
    validate(algebra)
    validate_rep(module)
    complex_ = build_complex(algebra, module)
    return CoefficientSystem(complex_, tuple(cohomology(complex_)))


def twisted_lefschetz(algebra: LieAlgebra, module: Representation,
                      morphism: LieMorphism, intertwiner: Intertwiner,
                      linearization_matrix: Matrix | None = None
                      ) -> LefschetzReport:
    """Full pipeline: validate, build the complex, induce maps on cohomology,
    and compare the alternating trace with det(I - A).

    linearization_matrix defaults to the morphism matrix.  The algebra and
    module are validated with their coefficient system, once per value; the
    morphism and intertwiner on every call.
    """
    system = coefficient_system(algebra, module)
    check_morphism(morphism)
    validate_intertwiner(intertwiner)
    chain_map = induced_chain_map(system.complex, morphism, intertwiner)
    cohom = system.cohomology
    maps = induced_cohomology_map(cohom, chain_map)

    cohom_traces = tuple(m.trace() for m in maps)
    cochain_traces = tuple(b.trace() for b in chain_map.blocks)
    lefschetz_number = alternating_sum(cohom_traces)
    hopf = alternating_sum(cochain_traces)
    if lefschetz_number != hopf:
        raise InternalConsistencyFailure(
            "Hopf trace identity failed: cochain-level alternating trace "
            f"{hopf} != cohomology-level {lefschetz_number} (cochain traces "
            f"{cochain_traces}, cohomology traces {cohom_traces})")

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
        cochain_traces=cochain_traces,
        lefschetz=lefschetz_number,
        hopf=hopf,
        det_i_minus_a=det_value,
        agree=agree,
        note=note,
    )

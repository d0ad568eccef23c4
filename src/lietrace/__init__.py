"""Exact Lefschetz numbers for nilmanifold and solvmanifold self-maps,
computed at the Lie algebra level.

The layers, bottom to top: ratlin (rational linear algebra), liealg
(structure constants, series, morphisms), repn (modules and intertwiners),
cecomplex (cochain complex, cohomology, induced maps), lefschetz (the
three-way trace/determinant report), nilshadow (semisimple splitting of
solvable algebras), torus_oracle (independent fixed point counts), catalog
(built-in examples), cli (command line).
"""

from .ratlin import (Matrix, determinant, exterior_power, jordan_chevalley,
                     minimal_polynomial, rref)
from .liealg import (LieAlgebra, LieMorphism, ad, bracket, check_morphism,
                     endomorphism, is_nilpotent, is_solvable, series, validate)
from .repn import (Intertwiner, Representation, adjoint_module,
                   identity_intertwiner, pullback, trivial_module,
                   validate_intertwiner, validate_rep)
from .cecomplex import (CochainComplex, betti_numbers, build_complex,
                        cohomology, induced_chain_map, induced_cohomology_map)
from .lefschetz import LefschetzReport, linearization, twisted_lefschetz
from .nilshadow import (SplitPresentation, build_shadow, induced_shadow_map,
                        shadow_report, validate_split)
from .torus_oracle import TorusMap, count_fixed_points, cross_check_with_ce
from . import catalog

__all__ = [
    "Matrix", "determinant", "exterior_power", "jordan_chevalley",
    "minimal_polynomial", "rref",
    "LieAlgebra", "LieMorphism", "ad", "bracket", "check_morphism",
    "endomorphism", "is_nilpotent", "is_solvable", "series", "validate",
    "Intertwiner", "Representation", "adjoint_module", "identity_intertwiner",
    "pullback", "trivial_module", "validate_intertwiner", "validate_rep",
    "CochainComplex", "betti_numbers", "build_complex", "cohomology",
    "induced_chain_map", "induced_cohomology_map",
    "LefschetzReport", "linearization", "twisted_lefschetz",
    "SplitPresentation", "build_shadow", "induced_shadow_map", "shadow_report",
    "validate_split",
    "TorusMap", "count_fixed_points", "cross_check_with_ce",
    "catalog",
]

__version__ = "0.1.0"

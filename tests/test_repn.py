"""Modules and intertwiners."""

import random
from fractions import Fraction

import pytest

from lietrace.catalog import get, random_graded_endomorphism
from lietrace.liealg import endomorphism
from lietrace.ratlin import InvalidInput, Matrix, format_rational, inverse
from lietrace.repn import (Intertwiner, Representation, adjoint_module,
                           identity_intertwiner, pullback, trivial_module,
                           validate_intertwiner, validate_rep)

from helpers import (ALL_NAMES, conjugated_module, direct_sum,
                     heisenberg_defining_module, random_invertible,
                     random_modules, whole)

HEIS3 = get("heisenberg3").algebra
IDENTITY3 = endomorphism(HEIS3, Matrix.identity(3))
ZERO1 = Matrix.zero(1, 1)


def test_trivial_and_adjoint_modules_validate():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        validate_rep(trivial_module(algebra))
        validate_rep(adjoint_module(algebra))


def test_dense_action_lists_equal_matrix_actions():
    # nested lists of rational strings, alone or next to a Matrix, are
    # coerced to the same actions
    for module in (heisenberg_defining_module(HEIS3), adjoint_module(HEIS3)):
        dense = [[[format_rational(x) for x in row] for row in a.entries]
                 for a in module.actions]
        mixed = [module.actions[0]] + dense[1:]
        for actions in (dense, mixed):
            rebuilt = Representation(algebra=HEIS3, dim=module.dim,
                                     actions=actions)
            assert rebuilt == module
            assert all(type(a) is Matrix for a in rebuilt.actions)


def test_adjoint_module_shares_the_basis_ads():
    for name in ALL_NAMES:
        algebra = get(name).algebra
        assert adjoint_module(algebra).actions is algebra.basis_ads


def test_defining_module_of_heisenberg_validates():
    validate_rep(heisenberg_defining_module(HEIS3))


def test_not_a_representation_frozen():
    # rho(e2) = 0 but [rho(e0), rho(e1)] = diag(1, -1) != 0
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    rep = Representation(algebra=HEIS3, dim=2,
                         actions=(a, b, Matrix.zero(2, 2)))
    with pytest.raises(InvalidInput, match=whole(
            "compatibility fails on basis pair (0,1): "
            "rho([e_i,e_j]) != [rho(e_i), rho(e_j)]")):
        validate_rep(rep)


def test_random_conjugated_modules_validate():
    for module in random_modules(seed=71, count=12):
        validate_rep(module)


def test_pullback_identity_and_composition():
    rng = random.Random(73)
    for name in ("heisenberg3", "filiform4", "sol3"):
        entry = get(name)
        algebra = entry.algebra
        module = adjoint_module(algebra)
        ident = endomorphism(algebra, Matrix.identity(algebra.dim))
        assert pullback(ident, module).actions == module.actions
        if entry.grading is None:
            continue
        f = random_graded_endomorphism(entry, rng.randrange(10 ** 6))
        g = random_graded_endomorphism(entry, rng.randrange(10 ** 6))
        fg = endomorphism(algebra, f.matrix * g.matrix)
        composed = pullback(fg, module)
        nested = pullback(g, pullback(f, module))
        assert composed.actions == nested.actions


def test_pullback_of_trivial_module_is_trivial():
    trivial = trivial_module(HEIS3)
    for f_matrix in (Matrix.diagonal([2, 3, 6]), Matrix.zero(3, 3),
                     Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])):
        pulled = pullback(endomorphism(HEIS3, f_matrix), trivial)
        assert pulled.actions == trivial.actions


def test_pullback_frozen_diagonal_example():
    # pulling the adjoint of heisenberg3 back along diag(2,3,6) scales the
    # actions by the diagonal entries
    module = adjoint_module(HEIS3)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    pulled = pullback(f, module)
    assert pulled.actions[0] == 2 * module.actions[0]
    assert pulled.actions[1] == 3 * module.actions[1]
    assert pulled.actions[2] == 6 * module.actions[2]


def test_intertwiner_trivial_module_any_scalar():
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    module = trivial_module(HEIS3)
    for c in (1, 0, Fraction(-3, 5)):
        validate_intertwiner(Intertwiner(morphism=f, module=module,
                                         matrix=[[c]]))


def test_intertwiner_adjoint_frozen():
    # for an automorphism f, the inverse matrix intertwines the pulled-back
    # adjoint module; f itself does not (checked by direct matrix identity)
    module = adjoint_module(HEIS3)
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    validate_intertwiner(Intertwiner(morphism=f, module=module,
                                     matrix=inverse(f.matrix)))
    with pytest.raises(InvalidInput, match=whole(
            "intertwiner not equivariant at basis vector 0")):
        validate_intertwiner(Intertwiner(morphism=f, module=module,
                                         matrix=f.matrix))
    # the exact identity behind the check, verified independently:
    # xi ad(f e0) = 2 xi ad(e0) vs ad(e0) xi with xi = f gives 12 != 3 at (2,1)
    lhs = f.matrix * (2 * module.actions[0])
    rhs = module.actions[0] * f.matrix
    assert lhs[2, 1] == 12 and rhs[2, 1] == 3


def test_intertwiner_inverse_rule_on_random_automorphisms():
    rng = random.Random(79)
    for name in ("heisenberg3", "heisenberg5", "filiform4"):
        entry = get(name)
        module = adjoint_module(entry.algebra)
        for _ in range(5):
            f = random_graded_endomorphism(entry, rng.randrange(10 ** 6))
            validate_intertwiner(Intertwiner(morphism=f, module=module,
                                             matrix=inverse(f.matrix)))


def test_identity_intertwiner_only_for_compatible_maps():
    module = adjoint_module(HEIS3)
    ident = endomorphism(HEIS3, Matrix.identity(3))
    validate_intertwiner(identity_intertwiner(ident, module))
    f = endomorphism(HEIS3, Matrix.diagonal([2, 3, 6]))
    with pytest.raises(InvalidInput, match=whole(
            "intertwiner not equivariant at basis vector 0")):
        validate_intertwiner(identity_intertwiner(f, module))


def test_conjugated_and_summed_modules():
    rng = random.Random(83)
    base = direct_sum(trivial_module(HEIS3), adjoint_module(HEIS3))
    validate_rep(base)
    conj = conjugated_module(base, random_invertible(rng, base.dim))
    validate_rep(conj)


@pytest.mark.parametrize("build, message", [
    (lambda: Representation(algebra=HEIS3, dim=0, actions=()),
     "module dimension must be at least 1"),
    (lambda: Representation(algebra=HEIS3, dim=1, actions=(ZERO1,)),
     "need one action matrix per algebra basis vector"),
    (lambda: Representation(algebra=HEIS3, dim=2, actions=(ZERO1,) * 3),
     "action matrix is 1x1, expected 2x2"),
    (lambda: Intertwiner(morphism=IDENTITY3, module=trivial_module(HEIS3),
                         matrix=Matrix.identity(2)),
     "intertwiner must be square of the module dimension"),
    (lambda: pullback(IDENTITY3, trivial_module(get("sol3").algebra)),
     "module is not over the morphism target"),
], ids=["dim", "action count", "action shape", "intertwiner shape",
        "pullback target"])
def test_dimension_guards(build, message):
    with pytest.raises(InvalidInput) as err:
        build()
    assert (err.type, str(err.value)) == (InvalidInput, message)

"""Finite-dimensional representations of the Lie algebras in liealg.

A representation is a list of action matrices, one per basis vector of the
algebra, subject to rho([e_i, e_j]) = rho(e_i) rho(e_j) - rho(e_j) rho(e_i).
Intertwiners are the coefficient maps that make pulled-back cochain
complexes comparable; equivariance is checked exactly.  Both checks are
ratlin.vanishes identities, row by row, building no product and no pullback.
"""

from __future__ import annotations

from .liealg import LieAlgebra, LieMorphism, bracket_terms
from .ratlin import (InvalidInput, Matrix, Record, linear_combination,
                     p_subsets, vanishes)


class Representation(Record):
    algebra: LieAlgebra
    dim: int
    actions: tuple  # one dim x dim Matrix per algebra basis vector

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("module dimension must be at least 1")
        # tuple() of a tuple is that tuple, so adjoint_module shares its
        # algebra's basis_ads
        actions = tuple(self.actions)
        if not all(isinstance(a, Matrix) for a in actions):
            actions = tuple(a if isinstance(a, Matrix) else Matrix(a)
                            for a in actions)
        if len(actions) != self.algebra.dim:
            raise InvalidInput("need one action matrix per algebra basis vector")
        for a in actions:
            if a.rows != self.dim or a.cols != self.dim:
                raise InvalidInput(f"action matrix is {a.rows}x{a.cols}, "
                                   f"expected {self.dim}x{self.dim}")
        object.__setattr__(self, "actions", actions)


def trivial_module(algebra: LieAlgebra) -> Representation:
    """The one-dimensional module with zero action."""
    zero = Matrix.zero(1, 1)
    return Representation(algebra=algebra, dim=1,
                          actions=tuple(zero for _ in range(algebra.dim)))


def adjoint_module(algebra: LieAlgebra) -> Representation:
    """The algebra acting on itself by ad; a representation by Jacobi."""
    return Representation(algebra=algebra, dim=algebra.dim,
                          actions=algebra.basis_ads)


def validate_rep(v: Representation) -> None:
    """Check rho([e_i,e_j]) = [rho(e_i), rho(e_j)] on all pairs i < j, the
    liealg.bracket_terms identity that is also Jacobi for the basis ads."""
    for i, j in p_subsets(v.algebra.dim, 2):
        if not vanishes(bracket_terms(v.algebra, v.actions, i, j)):
            raise InvalidInput(f"compatibility fails on basis pair ({i},{j}): "
                               f"rho([e_i,e_j]) != [rho(e_i), rho(e_j)]")


def pullback(f: LieMorphism, v: Representation) -> Representation:
    """The module with action rho(f(x)): new action for e_i is the sum of
    f[j][i] rho(e_j) over the sparse column i of f.  Composition-reversing."""
    _check_over_target(f, v)
    return Representation(algebra=f.source, dim=v.dim, actions=tuple(
        linear_combination(column, v.actions, f.matrix.den)
        for column in f.matrix.transpose().sparse))


class Intertwiner(Record):
    """Module map from the pullback of v along f back into v.

    Equivariance: matrix * rho(f(e_i)) == rho(e_i) * matrix for every i.
    For the trivial module any 1x1 matrix qualifies; for the adjoint module
    of an automorphism f, the inverse matrix of f is the canonical choice.
    """
    morphism: LieMorphism
    module: Representation
    matrix: Matrix

    def __post_init__(self):
        m = self.matrix if isinstance(self.matrix, Matrix) else Matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.rows != self.module.dim or m.cols != self.module.dim:
            raise InvalidInput("intertwiner must be square of the module dimension")


def identity_intertwiner(f: LieMorphism, v: Representation) -> Intertwiner:
    return Intertwiner(morphism=f, module=v, matrix=Matrix.identity(v.dim))


def _check_over_target(f: LieMorphism, v: Representation) -> None:
    if v.algebra != f.target:
        raise InvalidInput("module is not over the morphism target")


def validate_intertwiner(xi: Intertwiner) -> None:
    """Check xi rho(f(e_i)) = rho(e_i) xi for every i; times den, the
    denominator of f, that is the terms c xi rho(e_k) over the integers c
    of column i of f, and -den rho(e_i) xi, so no pullback is built."""
    f, v, m = xi.morphism, xi.module, xi.matrix
    _check_over_target(f, v)
    for i, column in enumerate(f.matrix.transpose().sparse):
        if not vanishes([(c, m, v.actions[k]) for k, c in column]
                        + [(-f.matrix.den, v.actions[i], m)]):
            raise InvalidInput(
                f"intertwiner not equivariant at basis vector {i}")

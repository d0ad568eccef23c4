"""Seeded nilpotent algebras beyond the catalog, and the frozen report oracle.

Algebras are built by central extension (Skjelbred-Sund): start from an
abelian or catalog algebra g with a positive grading, draw a
weight-homogeneous 2-cocycle w from the representatives of H^2(g; Q), and set
g' = g + Qz with [x, y]' = [x, y] + w(x, y) z, z of the weight of w.  The
cocycle identity is Jacobi for g', which stays nilpotent and positively
graded, so every diag(t^w) is a morphism.

Each case pairs an algebra with a module and the map f = diag(t^w):
the trivial module with a scalar xi, the adjoint module with xi = f^-1, or a
random_modules-style module (trivial + adjoint conjugated by a random
unimodular P) with xi = P diag(c, f^-1) P^-1.  Trivial modules go up to
dim 7, adjoint modules up to dim 5 and the dense conjugated ones up to dim 4.

    PYTHONPATH=src python tests/generated.py

rewrites tests/data/generated_reports.json with the sha256 of each
repr(LefschetzReport).  The file is frozen: a change to the library must
keep every hash, or say in CHANGES.md why one moved.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from lietrace.catalog import get
from lietrace.cecomplex import build_complex, cohomology
from lietrace.lefschetz import twisted_lefschetz
from lietrace.liealg import LieAlgebra, endomorphism
from lietrace.ratlin import Matrix, inverse, p_subsets
from lietrace.repn import Intertwiner, adjoint_module, trivial_module

from helpers import conjugated_module, direct_sum

DATA = Path(__file__).resolve().parent / "data" / "generated_reports.json"
SEED = 20141
CASES = 200
BASES = ["abelian_2", "abelian_3", "abelian_4", "heisenberg3", "heisenberg5",
         "filiform4"]
TS = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]


def central_extension(rng: random.Random, algebra: LieAlgebra, grading):
    """g + Qz by a random weight-homogeneous class of H^2(g; Q)."""
    n = algebra.dim
    reps = cohomology(build_complex(algebra, trivial_module(algebra)))[2] \
        .representative_basis.entries
    pairs = p_subsets(n, 2)

    def weight(v):
        i, j = pairs[next(k for k, x in enumerate(v) if x)]
        return grading[i] + grading[j]

    w = weight(reps[rng.randrange(len(reps))])
    same = [v for v in reps if weight(v) == w]
    coeffs = [0]
    while not any(coeffs):
        coeffs = [rng.randint(-2, 2) for _ in same]
    brackets = {pair: dict(comps) for pair, comps in algebra.brackets.items()}
    for k, pair in enumerate(pairs):
        c = sum((a * v[k] for a, v in zip(coeffs, same)), Fraction(0))
        if c:
            brackets.setdefault(pair, {})[n] = c
    return LieAlgebra(dim=n + 1, brackets=brackets), tuple(grading) + (w,)


def _algebra(rng: random.Random, dim: int):
    """A seeded base algebra, centrally extended up to dimension `dim`."""
    bases = [b for b in BASES if get(b).algebra.dim < dim]
    name = bases[rng.randrange(len(bases))]
    entry = get(name)
    algebra, grading = entry.algebra, entry.grading
    while algebra.dim < dim:
        algebra, grading = central_extension(rng, algebra, grading)
    return f"{name}+{dim - entry.algebra.dim}", algebra, grading


def generated_cases():
    """(key, algebra, module, morphism, intertwiner, kind) for every case,
    in a fixed order; kind is 'trivial', 'adjoint' or 'random'."""
    rng = random.Random(SEED)
    out = []
    for index in range(CASES):
        kind = ("trivial", "adjoint", "random")[index % 3]
        dim = rng.randint(3, {"trivial": 7, "adjoint": 5, "random": 4}[kind])
        name, algebra, grading = _algebra(rng, dim)
        t = TS[rng.randrange(len(TS))]
        f = endomorphism(algebra, Matrix.diagonal([t ** w for w in grading]))
        f_inv = inverse(f.matrix)
        c = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        if kind == "trivial":
            module, xi = trivial_module(algebra), Matrix([[c]])
        elif kind == "adjoint":
            module, xi = adjoint_module(algebra), f_inv
        else:
            p = _unimodular(rng, algebra.dim + 1)
            module = conjugated_module(
                direct_sum(trivial_module(algebra), adjoint_module(algebra)), p)
            xi = p * _direct_sum_matrix(c, f_inv) * inverse(p)
        key = f"{index:03d} {name} dim{dim} {kind} t={t} c={c}"
        out.append((key, algebra, module, f,
                    Intertwiner(morphism=f, module=module, matrix=xi), kind))
    return out


def _unimodular(rng: random.Random, n: int) -> Matrix:
    """L U for random integer unitriangular L and U: dense, with an integer
    inverse, so conjugation keeps the coefficients small."""
    lower = Matrix([[1 if i == j else rng.randint(-1, 1) if j < i else 0
                     for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else rng.randint(-1, 1) if j > i else 0
                     for j in range(n)] for i in range(n)])
    return lower * upper


def _direct_sum_matrix(c: Fraction, m: Matrix) -> Matrix:
    """diag(c, m)."""
    n = m.rows
    return Matrix([[c] + [0] * n] + [[0] + list(m.row(i)) for i in range(n)])


def report_sha256(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()


def compute_oracle() -> list:
    return [{"key": key, "sha256": report_sha256(
                twisted_lefschetz(algebra, module, f, xi))}
            for key, algebra, module, f, xi, _ in generated_cases()]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"seed": SEED, "cases": compute_oracle()},
                               indent=1) + "\n")
    print(f"wrote {CASES} hashes to {DATA}")

"""The frozen report oracle over seeded central extensions (tests/generated.py).

Every repr(LefschetzReport) must hash as it did when the oracle was frozen.
Independent identities are checked on the same reports: the cochain trace
factorizes as det(I - f) tr(xi), the Euler characteristic, each cohomology
trace against the dense references of tests/helpers.py, and on the
trivial-module cases Poincare duality b_p = b_(n-p) (nilpotent algebras are
unimodular) and Dixmier's bound b_p >= 2 for 0 < p < n.  On the same
algebras and modules, inner automorphisms act trivially on cohomology.
"""

import json
import random
from fractions import Fraction

import pytest

from lietrace.lefschetz import twisted_lefschetz
from lietrace.liealg import endomorphism, series
from lietrace.ratlin import Matrix, determinant
from lietrace.repn import Intertwiner

from generated import DATA, generated_cases, report_sha256
from helpers import reference_ad, reference_cohomology_traces


@pytest.fixture(scope="module")
def reports():
    return [(key, algebra, f, xi, kind,
             twisted_lefschetz(algebra, module, f, xi))
            for key, algebra, module, f, xi, kind in generated_cases()]


def test_reports_match_frozen_hashes(reports):
    frozen = json.loads(DATA.read_text())["cases"]
    assert [c["key"] for c in frozen] == [key for key, *_ in reports]
    moved = [key for (key, *_, report), case in zip(reports, frozen)
             if report_sha256(report) != case["sha256"]]
    assert not moved, moved


def test_trace_identities(reports):
    for key, algebra, f, xi, _, report in reports:
        n = algebra.dim
        det = determinant(Matrix.identity(n) - f.matrix)
        assert report.lefschetz == report.hopf == det * xi.matrix.trace(), key
        assert (sum((-1) ** p * b for p, b in enumerate(report.betti))
                == sum((-1) ** p * d for p, d in enumerate(report.dims))), key


# the per-degree oracle's tier-1 subset; tests/trace_oracle.py runs it on
# every trivial and adjoint case
ORACLE_SUBSET = {("trivial", 3), ("trivial", 4), ("trivial", 5),
                 ("trivial", 6), ("adjoint", 3), ("random", 3)}


def test_each_cohomology_trace_is_cocycles_less_coboundaries(reports):
    # tr H^p(F) = tr(F_p | Z^p) - tr(F_p | B^p) in every degree
    checked = 0
    for key, algebra, f, xi, kind, report in reports:
        if (kind, algebra.dim) in ORACLE_SUBSET:
            assert list(report.cohomology_traces) == \
                reference_cohomology_traces(algebra, f, xi), key
            checked += 1
    assert checked == 104


def test_poincare_duality_and_dixmier_bound(reports):
    trivial = [(key, algebra.dim, report.betti)
               for key, algebra, _, _, kind, report in reports
               if kind == "trivial"]
    assert len(trivial) >= 60
    for key, n, betti in trivial:
        assert betti == betti[::-1], key
        assert betti[0] == betti[n] == 1, key
        assert all(b >= 2 for b in betti[1:n]), key


def test_generated_set_reaches_beyond_the_catalog(reports):
    dims = {algebra.dim for _, algebra, *_ in reports}
    assert dims == {3, 4, 5, 6, 7}
    # some derived algebra [g, g] is itself non-abelian
    assert any(series(algebra, "derived").dims[2] > 0
               for _, algebra, *_ in reports)


def _exp_nilpotent(m: Matrix) -> Matrix:
    """exp(m) = sum of m^k / k! for a nilpotent m, the sum being finite."""
    term = total = Matrix.identity(m.rows)
    k = 0
    while not term.is_zero():
        k += 1
        term = term * m * Fraction(1, k)
        total = total + term
    return total


def test_inner_automorphisms_act_trivially():
    # Cartan's formula L_x = d i_x + i_x d: g = exp(ad x) acts as the
    # identity on every H^p, with xi = 1 on the trivial module and
    # xi = g^-1 = exp(-ad x) on the adjoint module
    rng = random.Random(25)
    moved = 0
    for key, algebra, module, _, _, kind in generated_cases():
        if kind == "random":
            continue
        x = [rng.randint(-2, 2) for _ in range(algebra.dim)]
        ad_x = reference_ad(algebra, x)
        g = endomorphism(algebra, _exp_nilpotent(ad_x))
        xi = (Matrix.identity(1) if kind == "trivial"
              else _exp_nilpotent(-ad_x))
        report = twisted_lefschetz(algebra, module, g, Intertwiner(
            morphism=g, module=module, matrix=xi))
        assert report.cohomology_maps == tuple(
            Matrix.identity(b) for b in report.betti), key
        moved += g.matrix != Matrix.identity(algebra.dim)
    assert moved >= 100

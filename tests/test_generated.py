"""The frozen report oracle over seeded central extensions (tests/generated.py).

Every repr(LefschetzReport) must hash as it did when the oracle was frozen.
Independent identities are checked on the same reports: the cochain trace
factorizes as det(I - f) tr(xi), the Euler characteristic, and on the
trivial-module cases Poincare duality b_p = b_(n-p) (nilpotent algebras are
unimodular) and Dixmier's bound b_p >= 2 for 0 < p < n.
"""

import json

import pytest

from lietrace.lefschetz import twisted_lefschetz
from lietrace.liealg import series
from lietrace.ratlin import Matrix, determinant

from generated import DATA, generated_cases, report_sha256


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

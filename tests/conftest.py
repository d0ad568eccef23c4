"""Every test starts with an empty liealg memo, so a test that counts or
patches the work behind a memoized value (the differentials, the
Jordan-Chevalley split) sees that work run."""

import pytest

from lietrace import liealg


@pytest.fixture(autouse=True)
def cold_memo():
    liealg._memo.clear()
    yield
    liealg._memo.clear()

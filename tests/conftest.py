"""Every test starts with empty coefficient-system and shadow caches, so a
test that counts or patches the work behind a cached value (the
differentials, the Jordan-Chevalley split) sees that work run."""

import pytest

from lietrace import lefschetz, nilshadow


@pytest.fixture(autouse=True)
def cold_caches():
    lefschetz.coefficient_system.cache_clear()
    nilshadow._shadow.cache_clear()
    yield
    lefschetz.coefficient_system.cache_clear()
    nilshadow._shadow.cache_clear()

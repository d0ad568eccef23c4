"""Every test starts with empty coefficient-system, shadow and subset-table
caches, so a test that counts or patches the work behind a cached value (the
differentials, the Jordan-Chevalley split, the subsets of an exterior power)
sees that work run."""

import pytest

from lietrace import lefschetz, nilshadow, ratlin


@pytest.fixture(autouse=True)
def cold_caches():
    lefschetz.coefficient_system.cache_clear()
    nilshadow.build_shadow.cache_clear()
    ratlin.subset_tables.cache_clear()
    yield
    lefschetz.coefficient_system.cache_clear()
    nilshadow.build_shadow.cache_clear()
    ratlin.subset_tables.cache_clear()

import pytest

from ffsym import definability, dirichlet, places, polyring, quaternion, symbols

# every layer above gf: gf's lru_caches hold the field tables, which no
# result depends on and which are slow to rebuild
LAYERS = (polyring, places, symbols, quaternion, definability, dirichlet)


def clear_caches():
    """Empty every lru_cache in the layer modules."""
    for module in LAYERS:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                obj.cache_clear()


@pytest.fixture(autouse=True)
def clear_layer_caches():
    """Start every test with empty layer caches, so that call counts and
    cache-dependent paths do not depend on which tests ran before."""
    clear_caches()

"""Every ``functools.lru_cache`` in nbsloc: bounded, handing out read-only arrays, and listed in README.

The caches are found by walking the package, so a cache added later is checked too; it needs an
entry in EXAMPLES, the arguments the test builds one value with.
"""

import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import nbsloc
from nbsloc import bergman, locop, specfun
from nbsloc.states import ModelParams

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = {
    "quadrature.gauss_jacobi": (9, 1.0),  # radial_jacobi_grid(9, 1.5) hands out this rule
    "quadrature.half_line_grid": (9, 1.5),
    "quadrature.angular_grid": (16,),
    "locop._landau_rule": (0.36, 16),
    "specfun._inc_beta_blocks": (0.49, 512, 2.0),
    "states.basis_norms": (12, 1.5),
}


def _caches() -> dict:
    found = {}
    for info in pkgutil.iter_modules(nbsloc.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"nbsloc.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):  # a QuadratureGrid too
        for item in value:
            yield from _arrays(item)


def _readme_cache_table() -> str:
    rows = re.search(r"^ *\| value \| key \| entries kept \|\n((?: *\|.*\n)+)", README.read_text(), re.M)
    assert rows, "README has no cache table"
    return rows.group(1)


def test_every_cache_is_bounded_read_only_and_documented():
    caches, table = _caches(), _readme_cache_table()
    assert set(EXAMPLES) <= set(caches)
    for name, cache in caches.items():
        if cache.cache_info().maxsize is None:  # a memoized constant, such as the CLI's parser
            assert name == "cli.build_parser" and not inspect.signature(cache).parameters, name
            continue
        assert cache.cache_info().maxsize > 0, name
        assert name in EXAMPLES, f"{name}: add example arguments to EXAMPLES"
        assert f"`{name}`" in table, f"{name} is missing from README's cache table"
        value = cache(*EXAMPLES[name])
        arrays = list(_arrays(value))
        assert arrays, name
        assert not any(array.flags.writeable for array in arrays), name
        assert cache(*EXAMPLES[name]) is value, name


def test_every_eigenvalue_route_reads_the_one_table():
    # each route reads lambda_j = I_{R^2}(j+1, 2B-1) from the one cached table, so all agree bit for bit
    B, R = 1.5, 0.7
    f = np.linspace(1.0, 2.0, 20) + 0.5j
    routes = [
        lambda: locop.landau_eigenvalue(range(40), ModelParams(B), R),
        lambda: locop.disk_eigenvalue(3, B, R),
        lambda: bergman.transferred_apply(bergman.BergmanFunction(B, f), 0.3 + 0.1j, B, R),
        lambda: bergman.kernel_series(0.5, 0.6j, B, R * R),
        lambda: locop.leakage_bound(0.4 + 0.2j, B, R),
        lambda: locop.localized_overlap(0.4 + 0.2j, B, R, f),
        lambda: locop.landau_eigenvalue(range(600), ModelParams(B), R),  # a second size: 1,024 entries
        lambda: locop.disk_eigenvalue(700, B, R),
    ]
    cache = specfun._inc_beta_blocks
    cache.cache_clear()
    for route in routes:
        before = cache.cache_info()
        route()
        after = cache.cache_info()
        assert after.hits + after.misses > before.hits + before.misses, route
    assert cache.cache_info().misses == 2 and cache.cache_info().currsize == 2


def test_tables_past_the_largest_library_size_are_built_uncached():
    # three 2^20-entry tables stayed in the cache, 24 MB held; the values are the ones they gave
    import tracemalloc

    locop.disk_eigenvalue(3, 1.5, 0.5)
    tracemalloc.start()
    try:
        values = [locop.disk_eigenvalue(1_000_000, 1.5, R) for R in (0.9999995, 0.99999975, 0.9999999)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2e6, held
    assert [value.hex() for value in values] == ["0x1.78b54dc90835dp-1", "0x1.d1d0bf65b4d4fp-1",
                                                 "0x1.f70734c0fa950p-1"]


def test_the_largest_library_table_is_cached_and_a_prefix_of_a_larger_one():
    # leakage_bound asks for up to SERIES_MAX_TERMS = 100,000 entries, a table of 2^17
    cache, size = specfun._inc_beta_blocks, 1 << 17
    cache.cache_clear()
    kept = specfun.reg_inc_beta_table(0.81, size, 2.0)
    larger = specfun.reg_inc_beta_table(0.81, size + 1, 2.0)
    assert cache.cache_info().currsize == 1 and specfun.reg_inc_beta_table(0.81, size, 2.0).base is kept.base
    assert np.array_equal(larger[:size], kept) and not larger.flags.writeable


@pytest.mark.parametrize("cap, cached", [(1024, 1024), (1025, 2048)])
def test_the_cached_table_size_is_series_max_terms_rounded_up_at_call_time(cap, cached, monkeypatch):
    monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", cap)
    cache = specfun._inc_beta_blocks
    cache.cache_clear()
    specfun.reg_inc_beta_table(0.81, cached, 2.0)
    specfun.reg_inc_beta_table(0.81, cached + 1, 2.0)
    assert cache.cache_info().currsize == 1 and cache.cache_info().misses == 1

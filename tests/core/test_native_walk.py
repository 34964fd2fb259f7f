"""The compiled displacement walk against the Python reference walk.

``repro.core.native`` builds ``_cuckoo_walk.c`` on first import and the
table runs it where it loads; ``cuckoo_hash._walk_python`` stays the
reference.  These tests drive both walks on twin tables, check the
compiled walk's reference counting and bounds checks, and check that the
loader falls back to the Python walk (and says why) when it cannot build.
Walks are switched by setting ``cuckoo_hash._walk``, as nothing else
selects one.
"""

import logging
import os
import shutil
import sys
import sysconfig
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cuckoo_hash, native
from repro.core.cuckoo_hash import CuckooHashTable
from repro.hashing.skewing import SkewingHashFamily
from repro.hashing.strong import StrongHashFamily

COMPILED = cuckoo_hash._walk
PYTHON = cuckoo_hash._walk_python
WALKS = [pytest.param(PYTHON, id="python")]
if cuckoo_hash.WALK == "compiled":
    WALKS.append(pytest.param(COMPILED, id="compiled"))


def _can_build():
    """Why the compiled walk cannot build here, or ``None`` if it can."""
    compiler = native.build_command(Path("out"))[0]
    if shutil.which(compiler) is None:
        return f"no C compiler ({compiler})"
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").exists():
        return f"no Python.h in {include}"
    return None


@contextmanager
def _using(walk):
    saved = cuckoo_hash._walk
    cuckoo_hash._walk = walk
    try:
        yield
    finally:
        cuckoo_hash._walk = saved


def _table(ways, sets, max_attempts, strong):
    family = (
        StrongHashFamily(ways, sets, seed=ways * 31 + sets)
        if strong
        else SkewingHashFamily(ways, sets)
    )
    return CuckooHashTable(ways, sets, hash_family=family, max_attempts=max_attempts)


def _state(table):
    return (
        table._keys,
        table._locator,
        len(table),
        table._start_way,
        table._indices_cache,
    )


def test_compiled_walk_loads_where_it_can_build():
    """A host with a C compiler and ``Python.h`` must run the compiled walk."""
    missing = _can_build()
    if missing is not None:
        pytest.skip(missing)
    assert cuckoo_hash.WALK == "compiled"
    assert cuckoo_hash._walk is not PYTHON


# Insert (optionally through a drain-style tuple row) or remove one key.
_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert_row", "remove"]),
              st.integers(0, 160)),
    min_size=1,
    max_size=120,
)


@pytest.mark.skipif(cuckoo_hash.WALK != "compiled", reason="compiled walk not loaded")
@settings(max_examples=120, deadline=None)
@given(
    ways=st.integers(2, 8),
    sets=st.sampled_from([1, 2, 4, 8]),
    max_attempts=st.integers(1, 40),
    strong=st.booleans(),
    ops=_OPS,
)
def test_compiled_walk_matches_python_walk(ways, sets, max_attempts, strong, ops):
    compiled = _table(ways, sets, max_attempts, strong)
    python = _table(ways, sets, max_attempts, strong)
    for op, key in ops:
        value = object()
        results = []
        for table, walk in ((compiled, COMPILED), (python, PYTHON)):
            with _using(walk):
                if op == "remove":
                    results.append(table.remove(key))
                elif op == "insert_row" and key not in table:
                    row = tuple(table.hash_family.indices(key))
                    table._indices_cache[key] = row
                    results.append(table.insert_absent(key, value, row))
                else:
                    results.append(table.insert(key, value))
        assert results[0] == results[1]
        if op != "remove":
            assert results[0].evicted_value is results[1].evicted_value
        assert _state(compiled) == _state(python)
        for way_c, way_p in zip(compiled._values, python._values):
            assert all(a is b for a, b in zip(way_c, way_p))


@pytest.mark.parametrize("walk", WALKS)
def test_walk_keeps_reference_counts(walk):
    """Every key and value a walk moves or evicts is released once the
    table and its indices cache are cleared."""
    sentinel = object()
    keys = [(1 << 70) + key for key in range(40)]  # not interned
    before = [sys.getrefcount(sentinel)] + [sys.getrefcount(key) for key in keys]
    table = _table(2, 2, 5, strong=True)
    evicted = []
    with _using(walk):
        for position, key in enumerate(keys):
            result = table.insert(key, sentinel)
            evicted.append((result.evicted_key, result.evicted_value))
            if position % 7 == 3:
                table.remove(keys[position - 2])
    assert any(value is sentinel for _key, value in evicted)
    del evicted, result, key
    table.clear()
    table._indices_cache.clear()
    after = [sys.getrefcount(sentinel)] + [sys.getrefcount(key) for key in keys]
    assert after == before


@pytest.mark.parametrize("bad_index", [4, 1 << 70, -5])
@pytest.mark.parametrize("walk", WALKS)
def test_corrupted_index_raises_index_error(walk, bad_index):
    table = _table(2, 4, 32, strong=True)
    with _using(walk):
        for key in range(8):
            table.insert(key, None)
        table._indices_cache[1000] = [bad_index, bad_index]
        with pytest.raises(IndexError):
            table.walk(1000, None)


def test_loader_builds_into_a_fresh_cache(tmp_path, monkeypatch, caplog):
    missing = _can_build()
    if missing is not None:
        pytest.skip(missing)
    monkeypatch.setenv("HOME", str(tmp_path))
    with caplog.at_level(logging.INFO, logger="repro.core.native"):
        walk = native.load_walk()
    assert walk is not None
    cache = tmp_path / ".cache" / "repro-cuckoo"
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].startswith("_cuckoo_walk-")
    assert built[0].endswith(sysconfig.get_config_var("EXT_SUFFIX") or ".so")
    assert f"loaded from {cache}" in caplog.text
    # The rebuilt walk is the compiled walk: it agrees with the reference.
    twins = [_table(2, 2, 9, strong=False) for _ in range(2)]
    for table, table_walk in zip(twins, (walk, PYTHON)):
        with _using(table_walk):
            results = [table.insert(key, key) for key in range(12)]
        table.outcomes = [(r.outcome, r.attempts, r.evicted_key) for r in results]
    assert twins[0].outcomes == twins[1].outcomes
    assert _state(twins[0]) == _state(twins[1])


def test_loader_falls_back_without_a_compiler(tmp_path, monkeypatch, caplog):
    """A missing compiler leaves the Python walk in use and says why."""
    monkeypatch.setenv("HOME", str(tmp_path))
    real = sysconfig.get_config_var
    missing = str(tmp_path / "no-such-cc")

    def config(name):
        if name in ("LDSHARED", "CC"):
            return f"{missing} -shared"
        return real(name)

    monkeypatch.setattr(sysconfig, "get_config_var", config)
    with caplog.at_level(logging.INFO, logger="repro.core.native"):
        assert native.load_walk() is None
    assert "using the Python walk" in caplog.text
    assert missing in caplog.text
    cache = tmp_path / ".cache" / "repro-cuckoo"
    assert not cache.exists() or os.listdir(cache) == []

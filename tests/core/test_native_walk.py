"""The compiled displacement walk against the Python reference walk.

``repro.core.native`` builds ``_kernels.c`` on first import, and importing
the simulator fails without it; ``CuckooHashTable.walk`` runs its walk.  The
reference is ``walk_python`` in ``tests/coherence/reference_protocol.py``.
These tests drive both walks on twin tables (the reference is patched over
``CuckooHashTable.walk``, as nothing else selects a walk), check the
compiled hashing against the families' own, and check that the loader
builds the library, or raises with the compiler's message when it cannot.
The walk's typed-state checks are in ``test_cuckoo_hash.py``, and the
compiled drain runs the compiled walk directly (``test_native_drain.py``).
"""

import importlib.util
import logging
import os
import stat
import sysconfig
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.cuckoo_hash import CuckooHashTable
from repro.hashing.modulo import ModuloHashFamily
from repro.hashing.skewing import SkewingHashFamily
from repro.hashing.strong import StrongHashFamily

# Loaded by path: the oracle lives beside the coherence suites.
_SPEC = importlib.util.spec_from_file_location(
    "reference_protocol",
    Path(__file__).parents[1] / "coherence" / "reference_protocol.py",
)
reference_protocol = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference_protocol)

COMPILED = CuckooHashTable.walk
PYTHON = reference_protocol.walk_python
_state = reference_protocol.table_state


@contextmanager
def _using(walk):
    CuckooHashTable.walk = walk
    try:
        yield
    finally:
        CuckooHashTable.walk = COMPILED


def _table(ways, sets, max_attempts, strong):
    family = (
        StrongHashFamily(ways, sets, seed=ways * 31 + sets)
        if strong
        else SkewingHashFamily(ways, sets)
    )
    return CuckooHashTable(ways, sets, hash_family=family, max_attempts=max_attempts)


def test_compiled_walk_loads_where_it_can_build():
    """Importing the simulator built (or found) the library: the walk and
    the drain every table and system runs are its functions."""
    assert native.KERNELS.__file__ in native.STATUS
    assert Path(native.KERNELS.__file__).name.startswith("_kernels-")
    assert callable(native.KERNELS.walk) and callable(native.KERNELS.drain)


# Insert (optionally with the key's precomputed row) or remove one key.
_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert_row", "remove"]),
              st.integers(0, 160)),
    min_size=1,
    max_size=120,
)


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
    for position, (op, key) in enumerate(ops):
        value = (key << 8 | position) | 1 << 63
        results = []
        for table, walk in ((compiled, COMPILED), (python, PYTHON)):
            with _using(walk):
                if op == "remove":
                    results.append(table.remove(key))
                elif op == "insert_row" and key not in table:
                    row = tuple(table.hash_family.indices(key))
                    results.append(table.insert_absent(key, value, row))
                else:
                    results.append(table.insert(key, value))
        assert results[0] == results[1]
        assert _state(compiled) == _state(python)


# The families the drain hashes, with the geometries the satellite cases
# name: skewing over power-of-two set counts (one set included) and offset
# bits 0-3, strong with per-slice seeds over any set count, modulo over any
# set count and one way.
_FAMILIES = st.one_of(
    st.builds(
        SkewingHashFamily, st.integers(1, 8),
        st.sampled_from([1, 2, 4, 64, 512, 8192, 1 << 20]), st.integers(0, 3),
    ),
    st.builds(
        StrongHashFamily, st.integers(1, 8), st.integers(1, 10_000),
        st.integers(0, 2**32),
    ),
    st.builds(ModuloHashFamily, st.integers(1, 16), st.integers(1, 10_000)),
)


@settings(max_examples=150, deadline=None)
@given(
    family=_FAMILIES,
    keys=st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 1 << 20), max_size=40),
)
def test_compiled_hashing_matches_the_families(family, keys):
    """The drain's C hashing, from the family's descriptor, equals
    ``batch_indices_array``, the families' vectorized index functions."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty((family.num_ways, keys.size), dtype=np.int64)
    native.KERNELS.indices(family.descriptor(), keys, out)
    assert np.array_equal(out, family.batch_indices_array(keys))


def test_loader_builds_into_a_fresh_cache(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("HOME", str(tmp_path))
    with caplog.at_level(logging.INFO, logger="repro.core.native"):
        kernels, status = native.load()
    assert callable(kernels.drain)
    walk = kernels.walk
    cache = tmp_path / ".cache" / "repro-cuckoo"
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].startswith("_kernels-")
    assert built[0].endswith(sysconfig.get_config_var("EXT_SUFFIX") or ".so")
    assert f"loaded from {cache}" in caplog.text
    assert status in caplog.text
    # The rebuilt walk is the compiled walk: it agrees with the reference.
    twins = [_table(2, 2, 9, strong=False) for _ in range(2)]

    def rebuilt(table, key, value):
        return walk(table.drain_state(), key, value)

    for table, table_walk in zip(twins, (rebuilt, PYTHON)):
        with _using(table_walk):
            results = [table.insert(key, key) for key in range(12)]
        table.outcomes = [(r.outcome, r.attempts, r.evicted_key) for r in results]
    assert twins[0].outcomes == twins[1].outcomes
    assert _state(twins[0]) == _state(twins[1])


def _with_compiler(monkeypatch, compiler):
    """Point the interpreter's compile-and-link line at ``compiler``."""
    real = sysconfig.get_config_var

    def config(name):
        if name in ("LDSHARED", "CC"):
            return f"{compiler} -shared"
        return real(name)

    monkeypatch.setattr(sysconfig, "get_config_var", config)


def test_loader_raises_with_the_compilers_message(tmp_path, monkeypatch):
    """A host that cannot build the library fails with ImportError: a
    missing compiler is named, and a failed compile carries the compiler's
    last line of output.  Nothing is left in the library cache."""
    monkeypatch.setenv("HOME", str(tmp_path))
    missing = str(tmp_path / "no-such-cc")
    _with_compiler(monkeypatch, missing)
    with pytest.raises(ImportError, match="cannot build the compiled kernels") as raised:
        native.load()
    assert missing in str(raised.value)
    failing = tmp_path / "failing-cc"
    failing.write_text("#!/bin/sh\necho compiling\necho 'fatal error: no such header' >&2\nexit 3\n")
    failing.chmod(failing.stat().st_mode | stat.S_IXUSR)
    _with_compiler(monkeypatch, failing)
    with pytest.raises(ImportError, match="exited with 3: fatal error: no such header"):
        native.load()
    cache = tmp_path / ".cache" / "repro-cuckoo"
    assert not cache.exists() or os.listdir(cache) == []

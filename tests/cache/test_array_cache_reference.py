"""Randomized equivalence: array-native cache vs the dict-of-objects model.

The flat-array rewrite of :class:`repro.cache.cache.SetAssociativeCache`
must be *behaviourally invisible*: for any access stream, hits, misses,
evictions (including which LRU victim leaves and whether it was dirty),
invalidation counts, state transitions and the final resident frame
contents must match the retained pre-rewrite reference implementation
(``reference_model.ReferenceCache``) exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CoherenceState, SetAssociativeCache
from repro.config import CacheConfig

from reference_model import ReferenceCache

#: (size_bytes, associativity): a 2-way L1-like and a 4-way geometry.
GEOMETRIES = [(1024, 2), (2048, 4)]

_VALID_STATES = [
    CoherenceState.SHARED,
    CoherenceState.EXCLUSIVE,
    CoherenceState.MODIFIED,
]

# One operation = (kind, address, payload).
_operations = st.lists(
    st.tuples(
        st.sampled_from(["touch_r", "touch_w", "fill", "invalidate", "set_state"]),
        st.integers(min_value=0, max_value=47),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=400,
)


def _apply(model, reference, kind, address, payload):
    """Run one op on both models; assert the immediate results agree."""
    if kind == "touch_r":
        assert model.touch(address) == reference.touch(address)
    elif kind == "touch_w":
        assert model.touch(address, write=True) == reference.touch(
            address, write=True
        )
    elif kind == "fill":
        state = _VALID_STATES[payload % len(_VALID_STATES)]
        dirty = payload % 2 == 1
        result = model.fill(address, state=state, dirty=dirty)
        hit, victim, victim_dirty, victim_state = reference.fill(
            address, state=state, dirty=dirty
        )
        assert result.hit == hit
        assert result.victim_address == victim
        assert result.victim_dirty == victim_dirty
        if victim is not None:
            assert result.victim_state == victim_state
    elif kind == "invalidate":
        assert model.invalidate(address) == reference.invalidate(address)
    else:  # set_state
        state = (_VALID_STATES + [CoherenceState.INVALID])[payload % 4]
        if reference.set_state(address, state):
            model.set_state(address, state)
        else:
            with pytest.raises(KeyError):
                model.set_state(address, state)


@pytest.mark.parametrize("size_bytes,ways", GEOMETRIES)
@given(operations=_operations)
@settings(max_examples=60, deadline=None)
def test_array_cache_matches_dict_reference(size_bytes, ways, operations):
    config = CacheConfig(size_bytes=size_bytes, associativity=ways)
    model = SetAssociativeCache(config)
    reference = ReferenceCache(config)

    for kind, address, payload in operations:
        _apply(model, reference, kind, address, payload)

    # Counter parity: hits, misses, evictions, dirty evictions, invalidations.
    stats = model.stats
    ref_stats = reference.stats
    assert stats.accesses == ref_stats.accesses
    assert stats.hits == ref_stats.hits
    assert stats.misses == ref_stats.misses
    assert stats.evictions == ref_stats.evictions
    assert stats.dirty_evictions == ref_stats.dirty_evictions
    assert stats.invalidations_received == ref_stats.invalidations_received

    # Frame-content parity: same resident blocks, states and dirty bits.
    observed = {
        address: (model.state_of(address), model.probe(address).dirty)
        for address in model.resident_addresses()
    }
    assert observed == reference.resident()


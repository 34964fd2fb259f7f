"""Tests for the d-ary cuckoo hash table."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.cuckoo_hash import CuckooHashTable, InsertOutcome
from repro.hashing.strong import Sha256HashFamily, StrongHashFamily


def make_table(ways=4, sets=64, max_attempts=32, seed=0):
    return CuckooHashTable(
        num_ways=ways,
        num_sets=sets,
        hash_family=StrongHashFamily(ways, sets, seed=seed),
        max_attempts=max_attempts,
    )


class TestBasics:
    def test_empty_table(self):
        table = make_table()
        assert len(table) == 0
        assert table.occupancy() == 0.0
        assert 123 not in table
        assert table.get(123) is None
        assert table.get(123, "default") == "default"

    def test_capacity(self):
        table = make_table(ways=3, sets=100)
        assert table.capacity == 300

    def test_insert_and_find(self):
        table = make_table()
        result = table.insert(0xABC, 0b101)
        assert result.outcome is InsertOutcome.INSERTED
        assert result.attempts == 1
        assert 0xABC in table
        assert table.get(0xABC) == 0b101
        assert len(table) == 1

    def test_insert_existing_key_updates_value(self):
        table = make_table()
        table.insert(7, 1)
        result = table.insert(7, 2)
        assert result.outcome is InsertOutcome.UPDATED
        assert result.attempts == 0
        assert table.get(7) == 2
        assert len(table) == 1

    def test_remove(self):
        table = make_table()
        table.insert(42)
        assert table.remove(42) is True
        assert 42 not in table
        assert len(table) == 0

    def test_remove_absent_key(self):
        table = make_table()
        assert table.remove(42) is False

    def test_clear(self):
        table = make_table()
        for key in range(50):
            table.insert(key)
        table.clear()
        assert len(table) == 0
        assert all(key not in table for key in range(50))

    def test_items_and_keys(self):
        table = make_table()
        expected = {}
        for key in range(20):
            table.insert(key, key * 10)
            expected[key] = key * 10
        assert dict(table.items()) == expected
        assert set(table.keys()) == set(expected)

    def test_candidate_slots_one_per_way(self):
        table = make_table(ways=3)
        slots = table.candidate_slots(99)
        assert len(slots) == 3
        assert [w for w, _ in slots] == [0, 1, 2]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CuckooHashTable(num_ways=1, num_sets=16)
        with pytest.raises(ValueError):
            CuckooHashTable(num_ways=2, num_sets=0)
        with pytest.raises(ValueError):
            CuckooHashTable(num_ways=2, num_sets=16, max_attempts=0)

    def test_rejects_mismatched_hash_family(self):
        with pytest.raises(ValueError):
            CuckooHashTable(
                num_ways=4, num_sets=64, hash_family=StrongHashFamily(2, 64)
            )


class TestDisplacement:
    def test_displacement_preserves_all_keys(self):
        """Displacement moves entries but never loses them (until the cap)."""
        table = make_table(ways=4, sets=64)
        keys = list(range(1000, 1000 + 180))  # 70% of 256 capacity
        for key in keys:
            result = table.insert(key, key)
            assert result.success
        for key in keys:
            assert table.get(key) == key
        assert len(table) == len(keys)

    def test_high_occupancy_insertions_use_multiple_attempts(self):
        table = make_table(ways=4, sets=32)
        multi_attempt = 0
        for key in range(int(table.capacity * 0.95)):
            result = table.insert(key)
            if result.attempts > 1:
                multi_attempt += 1
        assert multi_attempt > 0

    def test_eviction_reports_the_lost_key(self):
        table = make_table(ways=2, sets=4, max_attempts=4)
        evicted = []
        inserted = []
        for key in range(200):
            result = table.insert(key, key * 3)
            inserted.append(key)
            if result.evicted:
                evicted.append((result.evicted_key, result.evicted_value))
        assert evicted, "a tiny 2-way table must eventually overflow"
        for key, value in evicted:
            assert value == key * 3
        # Size accounting: inserted - evicted - still resident == 0.
        assert len(table) == len(set(inserted)) - len(evicted)

    def test_evicted_key_is_no_longer_findable(self):
        table = make_table(ways=2, sets=2, max_attempts=2)
        lost = None
        for key in range(50):
            result = table.insert(key)
            if result.evicted:
                lost = result.evicted_key
                break
        assert lost is not None
        assert lost not in table

    def test_attempts_never_exceed_cap(self):
        table = make_table(ways=3, sets=16, max_attempts=8)
        for key in range(200):
            result = table.insert(key)
            assert result.attempts <= 8

    def test_full_table_stays_full_not_over(self):
        table = make_table(ways=2, sets=8, max_attempts=16)
        for key in range(500):
            table.insert(key)
        assert len(table) <= table.capacity

    def test_way_occupancies_are_balanced(self):
        """The round-robin start way keeps ways roughly equally full."""
        table = make_table(ways=4, sets=256)
        for key in range(int(table.capacity * 0.6)):
            table.insert(key)
        occupancies = table.way_occupancies()
        assert max(occupancies) - min(occupancies) < 0.25

    def test_low_occupancy_single_attempt(self):
        """Below 50% occupancy 3+-ary insertions almost always take 1 attempt
        (Figure 7's observation)."""
        table = make_table(ways=4, sets=512)
        attempts = []
        for key in range(table.capacity // 2):
            attempts.append(table.insert(key).attempts)
        average = sum(attempts) / len(attempts)
        assert average < 1.3

    def test_occupancy_tracks_size(self):
        table = make_table(ways=4, sets=16)
        for key in range(32):
            table.insert(key)
        assert table.occupancy() == pytest.approx(32 / 64)


class TestHashFamilies:
    def test_works_with_default_skewing_family(self):
        table = CuckooHashTable(num_ways=4, num_sets=64)
        for key in range(100):
            assert table.insert(key).success
        assert len(table) == 100

    def test_three_way_table(self):
        table = make_table(ways=3, sets=128)
        for key in range(256):
            table.insert(key)
        assert len(table) == 256


@given(
    keys=st.lists(st.integers(min_value=0, max_value=1 << 32), max_size=120, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_property_inserted_keys_retrievable_until_evicted(keys):
    """Every key is either retrievable or was explicitly reported evicted."""
    table = make_table(ways=4, sets=48, max_attempts=16, seed=11)
    evicted = set()
    for key in keys:
        result = table.insert(key, key)
        if result.evicted:
            evicted.add(result.evicted_key)
    for key in keys:
        if key in evicted:
            assert key not in table
        else:
            assert table.get(key) == key
    assert len(table) == len(set(keys)) - len(evicted)


@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 60)),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_matches_reference_dict_when_capacity_sufficient(operations):
    """With plenty of capacity the table behaves exactly like a dict."""
    table = make_table(ways=4, sets=64, seed=5)  # capacity 256 >> 61 keys
    reference = {}
    for op, key in operations:
        if op == "insert":
            result = table.insert(key, key * 7)
            assert result.success
            reference[key] = key * 7
        else:
            assert table.remove(key) == (key in reference)
            reference.pop(key, None)
    assert dict(table.items()) == reference
    assert len(table) == len(reference)


class TestTypedState:
    """The table's typed buffers, as the compiled walk reads them."""

    def test_candidates_come_from_the_family(self):
        table = make_table(ways=3, sets=100)
        for key in (0, 7, 1 << 40):
            indices = table.hash_family.indices(key)
            assert table.candidate_slots(key) == list(enumerate(indices))
            table.insert(key, key + 1, candidate_indices=indices)
            assert table.find(key, indices) == table.find(key)
            assert table.get(key) == key + 1

    @pytest.mark.parametrize(
        "column,buffer,error",
        [(0, array("i", [0] * 256), TypeError), (1, array("q", [0] * 256), TypeError),
         (0, array("q", [-1] * 255), ValueError), (3, array("q", [0] * 2), ValueError)],
        ids=["int32-keys", "signed-masks", "short-keys", "short-meta"],
    )
    def test_walk_rejects_a_buffer_of_the_wrong_type_or_length(self, column, buffer, error):
        table = make_table()
        state = list(table.drain_state())
        state[column] = buffer
        with pytest.raises(error):
            native.KERNELS.walk(tuple(state), 5, 1)

    @pytest.mark.parametrize("key", [-5, 1 << 63], ids=["negative", "too-large"])
    def test_walk_rejects_an_out_of_range_key_with_nothing_written(self, key):
        table = make_table(ways=2, sets=2)
        for present in range(4):
            table.insert(present, present + 1)
        before = (list(table._keys), list(table._masks), list(table._meta))
        with pytest.raises(IndexError):
            table.walk(key, 1)
        table._meta[1] = 2  # a start way past the last way
        with pytest.raises(IndexError):
            table.walk(9, 1)
        table._meta[1] = before[2][1]
        assert (list(table._keys), list(table._masks), list(table._meta)) == before


class TestRefusals:
    """A table the compiled kernels cannot hash is refused at construction."""

    def test_family_without_a_descriptor(self):
        with pytest.raises(ValueError, match="Sha256HashFamily"):
            CuckooHashTable(4, 16, hash_family=Sha256HashFamily(4, 16))
        with pytest.raises(ValueError, match="Sha256HashFamily"):
            CuckooDirectory(4, num_sets=16, hash_family=Sha256HashFamily(4, 16))

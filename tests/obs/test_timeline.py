"""Unit tests for the counter-timeline layer (:mod:`repro.obs.timeline`).

Collection is driven through a fake system here — the simulator-facing
integration (sampling points, kernel identity) lives in
``tests/coherence/test_timeline_identity.py``.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.timeline import (
    ATTEMPT_CHAIN_BINS,
    CHANNEL_NAMES,
    COUNTER_CHANNELS,
    Timeline,
    load_timeline,
    save_timeline,
    sparkline,
    unknown_channels_message,
)


class FakeSystem:
    """Feeds deterministic, advancing counters to ``Timeline.sample``."""

    def __init__(self, banks=2):
        self.banks = banks
        self.ticks = 0

    def timeline_counters(self):
        self.ticks += 1
        t = self.ticks
        return {
            "forced_invalidations": t,
            "insertions": 10 * t,
            "insertion_attempts": 12 * t,
            "stash_occupancy": t % 3,
            "tracked_hit_rate": 0.5 + 0.01 * t,
            "shared_l2_hit_rate": 0.25,
            "total_messages": 100 * t,
            "traffic_bytes": 6400 * t,
            "traffic_hops": 300 * t,
        }

    def bank_occupancies(self):
        return [0.1 * self.ticks + 0.05 * bank for bank in range(self.banks)]

    def attempt_chain_bins(self, bins):
        assert bins == ATTEMPT_CHAIN_BINS
        return [8 * self.ticks, 2 * self.ticks, self.ticks, 0, 0]


def _collected(banks=2, samples=3):
    timeline = Timeline(occupancy_interval=100, interval=50, banks=banks)
    system = FakeSystem(banks=banks)
    for i in range(samples):
        timeline.record_occupancy(0.1 * (i + 1))
        timeline.sample(system)
    return timeline


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Timeline(occupancy_interval=0)
        with pytest.raises(ValueError):
            Timeline(occupancy_interval=100, interval=0)
        with pytest.raises(ValueError):
            Timeline(occupancy_interval=100, banks=0)

    def test_disabled_timeline_only_collects_occupancy(self):
        timeline = Timeline(occupancy_interval=100)
        assert not timeline.enabled
        assert timeline.channel_names() == ["occupancy"]
        timeline.record_occupancy(0.5)
        assert timeline.occupancy_list() == [0.5]
        with pytest.raises(KeyError, match="not collected"):
            timeline.channel("forced_invalidations")

    def test_enabled_timeline_has_every_channel(self):
        timeline = Timeline(occupancy_interval=100, interval=50, banks=4)
        assert timeline.enabled
        assert timeline.channel_names() == list(CHANNEL_NAMES)

    def test_unknown_channel_raises_with_valid_names(self):
        timeline = _collected()
        with pytest.raises(KeyError, match="expected: occupancy"):
            timeline.channel("bogus")


class TestCollection:
    def test_sample_shapes_and_cadences(self):
        timeline = _collected(banks=2, samples=3)
        assert timeline.channel("occupancy").shape == (3,)
        assert timeline.channel("occupancy_banks").shape == (3, 2)
        assert timeline.channel("attempt_chains").shape == (3, ATTEMPT_CHAIN_BINS)
        assert timeline.channel_cadence("occupancy") == 100
        assert timeline.channel_cadence("forced_invalidations") == 50
        for name in COUNTER_CHANNELS:
            assert timeline.num_samples(name) == 3

    def test_attempt_chains_are_differenced_per_sample(self):
        timeline = _collected(samples=3)
        # FakeSystem reports a cumulative histogram of 8t,2t,t,0,0 — each
        # sample must record only the increment since the previous one.
        chains = timeline.channel("attempt_chains")
        assert chains.tolist() == [[8, 2, 1, 0, 0]] * 3


class TestDisplaySeries:
    def test_cumulative_channels_render_interval_deltas(self):
        timeline = _collected(samples=3)
        # insertions go 10, 20, 30 cumulatively -> 10/interval each.
        assert timeline.display_series("insertions").tolist() == [10.0, 10.0, 10.0]

    def test_vector_channels_collapse(self):
        timeline = _collected(banks=2, samples=2)
        banks = timeline.channel("occupancy_banks")
        np.testing.assert_allclose(
            timeline.display_series("occupancy_banks"), banks.mean(axis=1)
        )
        chains = timeline.channel("attempt_chains")
        np.testing.assert_allclose(
            timeline.display_series("attempt_chains"), chains.sum(axis=1)
        )


class TestSparkline:
    def test_empty_and_flat_series(self):
        assert sparkline([]) == ""
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_short_series_one_block_per_value(self):
        line = sparkline([0.0, 1.0])
        assert len(line) == 2
        assert line[0] == "▁" and line[1] == "█"

    def test_long_series_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_non_finite_values_are_dropped(self):
        assert len(sparkline([0.0, float("nan"), 1.0])) == 2


class TestRender:
    def test_render_contains_channels_and_rates(self):
        text = _collected().render()
        assert "occupancy" in text
        assert "insertions/interval" in text  # cumulative channels as rates
        assert "▁" in text or "█" in text

    def test_render_rejects_unknown_channels(self):
        with pytest.raises(ValueError, match="unknown channel"):
            _collected().render(channels=["nope"])

    def test_render_subset_only_shows_requested(self):
        text = _collected().render(channels=["occupancy"])
        assert "occupancy" in text
        assert "traffic_bytes" not in text


class TestUnknownChannelsMessage:
    def test_lists_every_valid_name(self):
        message = unknown_channels_message(["typo"])
        assert message.startswith("unknown channel(s): typo")
        for name in CHANNEL_NAMES:
            assert name in message

    def test_silent_on_valid_or_empty(self):
        assert unknown_channels_message(None) is None
        assert unknown_channels_message([]) is None
        assert unknown_channels_message(["occupancy", "traffic_bytes"]) is None


class TestTransportAndStorage:
    def test_payload_roundtrip_is_equal(self):
        timeline = _collected()
        clone = Timeline.from_payload(timeline.to_payload())
        assert clone == timeline

    def test_payload_schema_is_checked(self):
        with pytest.raises(ValueError, match="schema"):
            Timeline.from_payload({"schema": "bogus"})

    def test_save_load_roundtrip_is_exact(self, tmp_path):
        timeline = _collected(banks=3, samples=5)
        path = tmp_path / "tl.npz"
        written = save_timeline(path, timeline)
        assert written == path.stat().st_size > 0
        loaded = load_timeline(path)
        assert loaded == timeline
        for name in timeline.channel_names():
            assert loaded.channel(name).dtype == timeline.channel(name).dtype

    def test_saved_bytes_are_deterministic(self, tmp_path):
        a = save_timeline(tmp_path / "a.npz", _collected())
        b = save_timeline(tmp_path / "b.npz", _collected())
        assert a == b
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_roundtrip_preserves_values_needing_wide_deltas(self, tmp_path):
        timeline = Timeline(occupancy_interval=10, interval=5, banks=1)
        system = FakeSystem(banks=1)
        timeline.record_occupancy(1 / 3)  # not float32-exact
        timeline.sample(system)
        # Force a huge counter jump so int deltas cannot narrow to int8/16.
        system.ticks = 10_000_000
        timeline.sample(system)
        loaded = load_timeline(
            (lambda p: (save_timeline(p, timeline), p)[1])(tmp_path / "wide.npz")
        )
        assert loaded == timeline
        assert loaded.occupancy_list() == [1 / 3]


class TestGauges:
    def test_publish_gauges_sets_last_values(self):
        obs.enable()
        timeline = _collected(samples=2)
        timeline.publish_gauges()
        snapshot = obs.REGISTRY.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["timeline.last.occupancy"] == pytest.approx(0.2)
        assert gauges["timeline.last.insertions"] == 20.0
        # Vector channels have no scalar "last" gauge.
        assert "timeline.last.occupancy_banks" not in gauges

    def test_publish_gauges_noop_when_disabled(self):
        _collected().publish_gauges()  # must not raise or enable anything
        assert not obs.REGISTRY.enabled


class TestExports:
    def test_json_dict_schema(self):
        document = _collected().to_json_dict()
        assert document["schema"] == "repro-timeline/1"
        assert document["mode"] == "interval"
        assert set(document["channels"]) == set(CHANNEL_NAMES)
        occupancy = document["channels"]["occupancy"]
        assert occupancy["kind"] == "gauge"
        assert occupancy["interval"] == 100
        assert occupancy["values"] == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)
        ]

    def test_csv_is_tidy_with_lane_expansion(self):
        lines = _collected(banks=2, samples=2).to_csv().strip().splitlines()
        assert lines[0] == "channel,lane,sample,accesses,value"
        banks_rows = [line for line in lines if line.startswith("occupancy_banks,")]
        assert len(banks_rows) == 4  # 2 samples x 2 lanes
        # accesses column carries the sample's cadence position
        assert banks_rows[0].split(",")[3] == "50"

    def test_every_channel_has_a_cadence(self):
        timeline = _collected(banks=2, samples=3)
        for name in timeline.channel_names():
            assert timeline.channel_cadence(name) in (50, 100)
        rows = [line.split(",") for line in timeline.to_csv().splitlines()[1:]]
        for channel, _lane, sample, accesses, _value in rows:
            cadence = timeline.channel_cadence(channel)
            assert int(accesses) == (int(sample) + 1) * cadence

    def test_sidecar_meta_keeps_the_interval_mode_field(self, tmp_path):
        # Earlier versions' readers still look for the field.
        path = tmp_path / "tl.npz"
        save_timeline(path, _collected())
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        assert meta["mode"] == "interval"
        assert "mode" not in _collected().to_payload()

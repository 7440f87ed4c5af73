"""The shard wire codec, round-tripped without a process.

``repro.runtime.shard.codec`` owns both ends of the block format: the
column encodings, the worker-side delta encoder and the coordinator-side
mirror.  These properties drive encoder → ``pickle`` → mirror directly,
so a format bug shows up here rather than as a diverging sharded run.
"""

import pickle
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.partition import shard_index
from repro.runtime.grouping import group_readings
from repro.runtime.shard.codec import (
    _DeltaEncoder,
    _Mirror,
    _decode_group_keys,
    _encode_group_keys,
    _pack_positions,
    _unpack_positions,
)


def over_the_wire(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestPositions:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=5_000_000), unique=True
        ).map(sorted)
    )
    def test_pack_round_trips(self, positions):
        packed = over_the_wire(_pack_positions(positions))
        assert _unpack_positions(packed) == positions

    def test_empty_and_fleet_scale(self):
        assert _unpack_positions(_pack_positions([])) == []
        positions = list(range(1_000_000, 1_000_000 + 4096, 4))
        packed = _pack_positions(positions)
        assert packed[0] == 1_000_000
        assert set(packed[1:]) == {4}  # small gaps, not absolute values
        assert _unpack_positions(packed) == positions


class TestGroupKeys:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["Z0", "Z1", "Z2", "Z3"]),
                st.integers(min_value=0, max_value=300),
                st.none(),
            )
        )
    )
    def test_encode_round_trips(self, keys):
        assert _decode_group_keys(over_the_wire(_encode_group_keys(keys))) == (
            keys
        )

    def test_few_distinct_keys_use_the_dictionary(self):
        keys = [f"Z{index % 8}" for index in range(1000)]
        block = _encode_group_keys(keys)
        assert block[0] == "t"
        assert len(block[1]) == 8
        assert len(block[2]) == 1000  # one byte per row
        assert _decode_group_keys(block) == keys

    def test_exactly_256_distinct_keys_still_fit(self):
        keys = list(range(256))
        assert _encode_group_keys(keys)[0] == "t"
        assert _decode_group_keys(_encode_group_keys(keys)) == keys

    def test_many_distinct_keys_fall_back_to_the_plain_list(self):
        keys = list(range(257)) * 2
        block = _encode_group_keys(keys)
        assert block[0] == "k"
        assert _decode_group_keys(block) == keys

    def test_unhashable_keys_fall_back_to_the_plain_list(self):
        keys = [["a"], ["b"], ["a"]]
        block = _encode_group_keys(keys)
        assert block[0] == "k"
        assert _decode_group_keys(block) == keys


VALUES = st.sampled_from([0, 1, 2, 1.0, True, None, "x", float("nan")])


def entity(position, epoch):
    """A stand-in reading subject.  Attributes are static within a
    registry epoch and may change across one (a rebind)."""
    return SimpleNamespace(
        info=SimpleNamespace(name="Sensor"),
        entity_id=f"e-{position:03d}",
        attributes={"zone": f"Z{(position * 7 + epoch) % 3}"},
    )


def flat_ident(subject):
    return (subject.info.name, subject.entity_id, dict(subject.attributes))


def zone_of(subject):
    return subject.attributes["zone"]


@st.composite
def scripts(draw):
    shards = draw(st.integers(min_value=1, max_value=3))
    fleet = draw(st.integers(min_value=1, max_value=12))
    sweeps = draw(
        st.lists(
            st.tuples(
                # which entities have a reading this sweep
                st.lists(st.booleans(), min_size=fleet, max_size=fleet),
                st.lists(VALUES, min_size=fleet, max_size=fleet),
                # which shards bumped their registry version first
                st.lists(st.booleans(), min_size=shards, max_size=shards),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return shards, fleet, sweeps


class TestEncoderToMirror:
    @settings(max_examples=200, deadline=None)
    @given(scripts(), st.booleans())
    def test_mirrors_track_the_surviving_readings(self, script, flat):
        """One mirror class serves both gather shapes; ``flat`` only
        picks the identity the encoder registers and the read method."""
        shards, fleet, sweeps = script
        owner = [shard_index(f"e-{p:03d}", shards) for p in range(fleet)]
        versions = [0] * shards
        encoders = [_DeltaEncoder(flat=flat) for __ in range(shards)]
        mirror = _Mirror(shards, flat=flat)
        ident_of = flat_ident if flat else zone_of
        for present, values, bumps in sweeps:
            for shard, bumped in enumerate(bumps):
                versions[shard] += bumped
            surviving = [
                (position, entity(position, versions[owner[position]]), value)
                for position, (here, value) in enumerate(zip(present, values))
                if here
            ]
            for shard in range(shards):
                mine = [row for row in surviving if owner[row[0]] == shard]
                # Three aligned columns, as the worker's poll hands them.
                positions, subjects, column = (
                    [row[field] for row in mine] for field in range(3)
                )
                blocks = over_the_wire(
                    encoders[shard].encode(
                        versions[shard], positions, subjects, column, ident_of
                    )
                )
                delta_rows, quiescent = mirror.apply(shard, blocks)
                register = blocks.get("register")
                shipped = len(register[-1]) if register else 0
                changed = blocks.get("changed")
                shipped += len(changed[-1]) if changed else 0
                # Every reading is either shipped or counted.
                assert shipped + quiescent == len(mine)
                assert delta_rows >= shipped
            # repr: order, value types and NaN all have to agree.
            assert repr(mirror.rows()) == repr(
                [
                    (ident_of(subject), value)
                    for __, subject, value in surviving
                ]
            )
            if not flat:
                expected = group_readings(
                    [(subject, value) for __, subject, value in surviving],
                    "zone",
                )
                assert repr(mirror.payload()) == repr(expected)

    def test_steady_state_ships_one_integer(self):
        encoder = _DeltaEncoder(flat=False)
        subjects = [entity(p, 0) for p in range(50)]
        positions = list(range(50))
        first = encoder.encode(1, positions, subjects, [0] * 50, zone_of)
        assert first["reset"] is True
        assert len(first["register"][-1]) == 50
        second = encoder.encode(1, positions, subjects, [0] * 50, zone_of)
        assert second == {"quiescent": 50}

    def test_payload_is_a_fresh_copy(self):
        encoder = _DeltaEncoder(flat=False)
        mirror = _Mirror(1, flat=False)
        subjects = [entity(0, 0), entity(1, 0)]
        mirror.apply(
            0, encoder.encode(1, [0, 1], subjects, [5, 6], zone_of)
        )
        payload = mirror.payload()
        for column in payload.values():
            column.clear()
        assert sum(len(c) for c in mirror.payload().values()) == 2

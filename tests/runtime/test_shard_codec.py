"""The shard wire codec, round-tripped without a process.

``repro.runtime.shard.codec`` owns both ends of the block format: the
column encodings, the worker-side delta encoder and the coordinator-side
mirror.  These properties drive encoder → ``pickle`` → mirror directly,
so a format bug shows up here rather than as a diverging sharded run.
"""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.mapreduce.partition import shard_index
from repro.runtime.grouping import KeyColumns, group_readings
from repro.runtime.shard.codec import (
    _DeltaEncoder,
    _Mirror,
    _decode_group_keys,
    _encode_group_keys,
    _pack_positions,
    _unpack_positions,
)
from tests.runtime.footprint import mirror_bytes_per_reading


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


def ident_columns_of(subjects, flat):
    """The ``ident_columns(rows)`` callable a worker hands the encoder:
    the identity columns of the given rows, as they go on the wire."""

    def ident_columns(rows):
        chosen = [subjects[row] for row in rows]
        if flat:
            return [list(c) for c in zip(*map(flat_ident, chosen))]
        return [_encode_group_keys([zone_of(s) for s in chosen])]

    return ident_columns


class RowLoopEncoder:
    """The delta encoder as one loop over the readings — the reference
    the column encoder must agree with block for block."""

    def __init__(self, flat):
        self.flat = flat
        self.version = None
        self.known = {}

    def encode(self, version, positions, subjects, values):
        ident_of = flat_ident if self.flat else zone_of
        blocks = {}
        if self.version != version:
            self.version = version
            self.known = {}
            blocks["reset"] = True
        known = self.known
        reg_pos, reg_ident, reg_val = [], [], []
        changed_pos, changed_val = [], []
        quiescent = 0
        for position, subject, value in zip(positions, subjects, values):
            if position not in known:
                reg_pos.append(position)
                reg_ident.append(ident_of(subject))
                reg_val.append(value)
                known[position] = value
            else:
                prev = known[position]
                if type(prev) is type(value) and prev == value:
                    quiescent += 1
                else:
                    changed_pos.append(position)
                    changed_val.append(value)
                    known[position] = value
        if len(known) != len(values):
            present = set(positions)
            retract = sorted(p for p in known if p not in present)
            for position in retract:
                del known[position]
            blocks["retract"] = _pack_positions(retract)
        if reg_pos:
            if self.flat:
                ident_columns = [list(column) for column in zip(*reg_ident)]
            else:
                ident_columns = [_encode_group_keys(reg_ident)]
            blocks["register"] = (
                _pack_positions(reg_pos),
                *ident_columns,
                reg_val,
            )
        if changed_pos:
            blocks["changed"] = (_pack_positions(changed_pos), changed_val)
        blocks["quiescent"] = quiescent
        return blocks


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
                # the order the shards' replies arrive in
                st.permutations(range(shards)),
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
        picks the identity the encoder registers and the read method.
        Every sweep is also encoded by the row-loop reference, and the
        blocks must be the same blocks.  Replies fold in the order they
        arrive: a second mirror folds each sweep's replies in a drawn
        order and must deliver what the shard-order fold does."""
        shards, fleet, sweeps = script
        owner = [shard_index(f"e-{p:03d}", shards) for p in range(fleet)]
        versions = [0] * shards
        encoders = [_DeltaEncoder() for __ in range(shards)]
        references = [RowLoopEncoder(flat) for __ in range(shards)]
        # The worker hands the encoder the very positions list of its
        # last poll while the membership holds; so does this test.
        last_positions = [None] * shards
        mirror = _Mirror(shards, flat=flat)
        arrival = _Mirror(shards, flat=flat)
        ident_of = flat_ident if flat else zone_of
        for present, values, bumps, arrived in sweeps:
            for shard, bumped in enumerate(bumps):
                versions[shard] += bumped
            surviving = [
                (position, entity(position, versions[owner[position]]), value)
                for position, (here, value) in enumerate(zip(present, values))
                if here
            ]
            replies = [None] * shards
            for shard in range(shards):
                mine = [row for row in surviving if owner[row[0]] == shard]
                # Three aligned columns, as the worker's poll hands them.
                positions, subjects, column = (
                    [row[field] for row in mine] for field in range(3)
                )
                if positions == last_positions[shard]:
                    positions = last_positions[shard]
                last_positions[shard] = positions
                encoded = encoders[shard].encode(
                    versions[shard],
                    positions,
                    column,
                    ident_columns_of(subjects, flat),
                )
                expected = references[shard].encode(
                    versions[shard], positions, subjects, column
                )
                # repr: NaN != NaN, and 1 / 1.0 / True must not pass
                # for one another.
                assert repr(encoded) == repr(expected)
                assert list(encoded) == list(expected)  # block order
                blocks = over_the_wire(encoded)
                replies[shard] = over_the_wire(encoded)
                delta_rows, quiescent = mirror.apply(shard, blocks)
                register = blocks.get("register")
                shipped = len(register[-1]) if register else 0
                changed = blocks.get("changed")
                shipped += len(changed[-1]) if changed else 0
                # Every reading is either shipped or counted.
                assert shipped + quiescent == len(mine)
                assert delta_rows >= shipped
            for shard in arrived:
                arrival.apply(shard, replies[shard])
            assert repr(arrival.rows()) == repr(mirror.rows())
            if not flat:
                assert repr(arrival.payload()) == repr(mirror.payload())
            # repr: order, value types and NaN all have to agree.
            assert repr(mirror.rows()) == repr(
                [
                    (ident_of(subject), value)
                    for __, subject, value in surviving
                ]
            )
            if not flat:
                columns = KeyColumns(
                    [subject for __, subject, ___ in surviving],
                    range(len(surviving)),
                    {},
                )
                expected = group_readings(
                    columns.keys("zone"),
                    columns.groups("zone")[0],
                    [value for __, ___, value in surviving],
                )
                assert repr(mirror.payload()) == repr(expected)

    @pytest.mark.parametrize("flat", [False, True])
    def test_each_encoder_path_matches_the_row_loop(self, flat):
        """Fresh epoch, same-positions comparison, a type-only change,
        NaN, a lost row, its return, a new epoch, a sweep that lost
        every reading and their return (the epoch has shipped nothing,
        so every row registers, without a reset), then same-positions
        sweeps over one-type columns (the one compare pass), equal
        values retyped between them (1 -> 1.0 -> True) and mixed-type
        columns with the same type set on both sides — by name, so a
        shrunk hypothesis corpus cannot lose them."""
        nan = float("nan")
        positions = [3, 5, 8, 9]
        fewer = [3, 8, 9]
        sweeps = [
            (1, positions, [0, 1, nan, "x"]),  # fresh epoch
            (1, positions, [0, 1, nan, "x"]),  # same list: NaN re-ships
            (1, positions, [0, True, nan, "x"]),  # 1 -> True: type only
            (1, positions, [0.0, True, 2, "x"]),  # 0 -> 0.0, NaN -> 2
            (1, fewer, [0.0, 2, "y"]),  # position 5 lost
            (1, fewer, [0.0, 2, "y"]),  # steady on the shorter list
            (1, positions, [0.0, 7, 3, "y"]),  # position 5 is back
            (2, positions, [0.0, 7, 3, "y"]),  # new epoch, same values
            (2, [], []),  # every reading lost, same epoch
            (2, positions, [0.0, 7, 3, "y"]),  # back: register, no reset
            (3, positions, [1, 2, 3, 4]),  # new epoch, one type
            (3, positions, [1, 2, 5, 4]),  # int on both sides
            (3, positions, [1.0, 2.0, 5.0, 4.0]),  # equal, all retyped
            (3, positions, [1.0, 2.0, 6.0, 4.0]),  # float on both sides
            (3, positions, [True, 2.0, 6.0, 4.0]),  # 1.0 -> True: mixed
            (3, positions, [1.0, True, 6.0, 4.0]),  # mixed, same kinds
            (3, positions, [True, True, True, True]),  # one type again
            (3, positions, [1, 1, 1, 1]),  # equal, all retyped
        ]
        encoder = _DeltaEncoder()
        reference = RowLoopEncoder(flat)
        seen = []
        for version, where, values in sweeps:
            subjects = [entity(position, version) for position in where]
            encoded = encoder.encode(
                version, where, values, ident_columns_of(subjects, flat)
            )
            expected = reference.encode(version, where, subjects, values)
            assert repr(encoded) == repr(expected)
            # The same blocks are the same bytes on the wire.
            assert pickle.dumps(encoded, pickle.HIGHEST_PROTOCOL) == (
                pickle.dumps(expected, pickle.HIGHEST_PROTOCOL)
            )
            seen.append(sorted(encoded))
        assert seen == [
            ["quiescent", "register", "reset"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent", "retract"],
            ["quiescent"],
            ["changed", "quiescent", "register"],
            ["quiescent", "register", "reset"],
            ["quiescent", "retract"],
            ["quiescent", "register"],
            ["quiescent", "register", "reset"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
            ["changed", "quiescent"],
        ]

    def test_steady_state_ships_one_integer(self):
        encoder = _DeltaEncoder()
        subjects = [entity(p, 0) for p in range(50)]
        ident_columns = ident_columns_of(subjects, flat=False)
        positions = list(range(50))
        first = encoder.encode(1, positions, [0] * 50, ident_columns)
        assert first["reset"] is True
        assert len(first["register"][-1]) == 50
        second = encoder.encode(1, positions, [0] * 50, ident_columns)
        assert second == {"quiescent": 50}
        # An equal copy of the positions column is a steady state too.
        third = encoder.encode(1, list(positions), [0] * 50, ident_columns)
        assert third == {"quiescent": 50}

    def test_payload_is_a_fresh_copy(self):
        encoder = _DeltaEncoder()
        mirror = _Mirror(1, flat=False)
        subjects = [entity(0, 0), entity(1, 0)]
        mirror.apply(
            0,
            encoder.encode(
                1, [0, 1], [5, 6], ident_columns_of(subjects, flat=False)
            ),
        )
        payload = mirror.payload()
        for column in payload.values():
            column.clear()
        assert sum(len(c) for c in mirror.payload().values()) == 2

    def test_a_reset_slice_keeps_only_what_registers_again(self):
        """A shard's reset clears its slice of the mirror — and nothing
        of the other shard's."""
        mirror = _Mirror(2, flat=False)
        block = lambda keys: _encode_group_keys(keys)  # noqa: E731
        mirror.apply(
            0,
            {
                "reset": True,
                "register": (_pack_positions([0, 2, 4]), block("ABA"), [1, 2, 3]),
            },
        )
        mirror.apply(
            1, {"reset": True, "register": ([1], block("B"), [9])}
        )
        assert mirror.payload() == {"A": [1, 3], "B": [9, 2]}
        mirror.apply(
            0,
            {
                "reset": True,
                "register": (_pack_positions([2, 6]), block("AB"), [7, 8]),
            },
        )
        assert mirror.payload() == {"B": [9, 8], "A": [7]}
        # The slices hold exactly positions 1, 2 and 6: position 4 went
        # with the reset, so a change to it is malformed.
        assert mirror.rows() == [("B", 9), ("A", 7), ("B", 8)]
        with pytest.raises(ShardError):
            mirror.apply(0, {"changed": (_pack_positions([4]), [5])})
        mirror.apply(0, {"changed": (_pack_positions([2, 6]), [7, 8])})
        mirror.apply(1, {"changed": ([1], [9])})
        assert mirror.rows() == [("B", 9), ("A", 7), ("B", 8)]
        mirror.apply(0, {"reset": True})
        assert mirror.payload() == {"B": [9]}


def register(positions, keys, values):
    return (_pack_positions(positions), _encode_group_keys(keys), values)


def flat_register(positions, values, ids=None):
    if ids is None:
        ids = [f"e-{position}" for position in positions]
    types = ["Sensor"] * len(positions)
    attributes = [{} for __ in positions]
    return (_pack_positions(positions), types, ids, attributes, values)


def two_slices(flat):
    """Shard 0 holds positions 0, 2 and 4, shard 1 position 1."""
    mirror = _Mirror(2, flat=flat)
    if flat:
        blocks = flat_register([0, 2, 4], [1, 2, 3]), flat_register([1], [9])
    else:
        blocks = register([0, 2, 4], "ABA", [1, 2, 3]), register([1], "B", [9])
    for shard, block in enumerate(blocks):
        mirror.apply(shard, {"reset": True, "register": block})
    return mirror


def changed(positions, values):
    return {"changed": (_pack_positions(positions), values)}


class TestMalformedBlocks:
    """A block that does not fit the slice its shard's encoder shipped
    raises :class:`ShardError` naming the shard, and the mirror stays
    exactly as it was: it delivers what a mirror that never saw the
    block delivers, before and after the next well-formed block."""

    @pytest.mark.parametrize(
        "flat, block",
        [
            # columns that do not align
            (False, {"reset": True, "register": register([6, 8], "AB", [1])}),
            (False, {"register": register([6, 8], "A", [1, 2])}),
            (True, {"register": flat_register([6, 8], [1, 2], ids=["e-6"])}),
            (False, changed([0, 2], [5])),
            # a changed row that names no row of the slice
            (False, changed([3], [5])),
            (False, changed([1], [5])),  # shard 1's
            (True, changed([0, 5], [5, 6])),
            (False, {"reset": True, **changed([0], [5])}),
            # a retract row that names no row of the slice
            (False, {"retract": _pack_positions([3])}),
            (False, {"retract": _pack_positions([1])}),  # shard 1's
            # a position registered twice
            (False, {"register": register([2, 6], "BA", [7, 8])}),
            (False, {"register": register([6, 6], "AB", [7, 8])}),
        ],
    )
    @pytest.mark.parametrize("clean", [False, True])
    def test_a_malformed_block_leaves_the_mirror_as_it_was(
        self, flat, block, clean
    ):
        mirror, reference = two_slices(flat), two_slices(flat)
        if clean:
            mirror.rows()
        with pytest.raises(ShardError) as raised:
            mirror.apply(0, block)
        assert raised.value.shard == 0
        for __ in range(2):
            assert repr(mirror.rows()) == repr(reference.rows())
            if not flat:
                assert mirror.payload() == reference.payload()
            mirror.apply(0, changed([0, 4], [5, 6]))
            reference.apply(0, changed([0, 4], [5, 6]))


def test_a_grouped_mirror_holds_under_150_bytes_per_reading():
    """100 000 readings over 2 shards, after one register and one
    steady ``changed`` fold: the mirror holds about 59 B per reading on
    CPython 3.10–3.13, with positions and the merged order as
    ``array("q")`` columns (as lists of int objects it held about
    123 B; the former four position-keyed tables about 275 B)."""
    assert mirror_bytes_per_reading() <= 80

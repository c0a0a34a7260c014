import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock.circuit import parse_bench
from tklock.keys import (
    KeySchedule,
    from_binary,
    generate_key_schedule,
    key_input_names,
    parse_key_list,
    schedule_from_text,
    schedule_to_text,
    split_inputs,
    to_binary,
)


@settings(max_examples=60, deadline=None)
@given(num_keys=st.integers(2, 16), key_bits=st.integers(1, 12), seed=st.integers(0, 2**32))
def test_generated_schedule_in_range_and_deterministic(num_keys, key_bits, seed):
    first = generate_key_schedule(num_keys, key_bits, seed)
    assert first.period == num_keys
    assert all(0 <= key < 2**key_bits for key in first.keys)
    assert first == generate_key_schedule(num_keys, key_bits, seed)


def test_explicit_schedule_1320_accepted():
    schedule = KeySchedule(keys=(1, 3, 2, 0), width=2)
    assert schedule.period == 4
    assert schedule.binary_strings() == ["01", "11", "10", "00"]


def test_explicit_schedule_0202_accepted():
    # the 00,10,00,10 pattern: repeats across values are fine
    schedule = KeySchedule(keys=(0, 2, 0, 2), width=2)
    assert schedule.binary_strings() == ["00", "10", "00", "10"]


def test_schedule_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        KeySchedule(keys=(4,), width=2)


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_key_schedule(1, 2, 0)
    with pytest.raises(ValueError):
        generate_key_schedule(4, 0, 0)


def test_key_at_wraps_cyclically():
    schedule = KeySchedule(keys=(1, 3, 2, 0), width=2)
    assert [schedule.key_at(c) for c in range(6)] == [1, 3, 2, 0, 1, 3]


def test_binary_msb_first():
    assert to_binary(1, 2) == "01"
    assert to_binary(2, 2) == "10"
    assert from_binary("10") == 2


def test_schedule_text_round_trip():
    schedule = KeySchedule(keys=(1, 3, 2, 0), width=2)
    assert schedule_from_text(schedule_to_text(schedule)) == schedule
    assert schedule_to_text(schedule) == "01\n11\n10\n00\n"


def test_parse_key_list():
    assert parse_key_list("01,11,10,00") == KeySchedule(keys=(1, 3, 2, 0), width=2)


def test_schedule_text_rejects_ragged():
    with pytest.raises(ValueError, match="inconsistent"):
        schedule_from_text("01\n1\n")


def test_key_input_names():
    assert key_input_names(2) == ["keyinput0", "keyinput1"]


def test_split_inputs(s27, s27_locked):
    locked, _ = s27_locked
    non_key, key = split_inputs(locked)
    assert non_key == list(s27.inputs)
    assert key == ["keyinput0", "keyinput1"]
    assert split_inputs(s27) == (list(s27.inputs), [])


@pytest.mark.parametrize(
    "key_inputs",
    [("keyinput1",), ("keyinput0", "keyinput2"), ("keyinput1", "keyinput01")],
    ids=["no-bit-0", "gap", "leading-zero"],
)
def test_split_inputs_rejects_key_inputs_off_their_bits(key_inputs):
    """Key inputs are keyinput0..keyinput{w-1}: each other set would bind an
    input to another key bit."""
    netlist = parse_bench("".join(f"INPUT({n})\n" for n in ("a", *key_inputs)) + "OUTPUT(a)\n")
    with pytest.raises(ValueError, match="are not keyinput0..keyinput"):
        split_inputs(netlist)

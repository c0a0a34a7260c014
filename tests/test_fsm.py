import pytest

from tklock import corpus
from tklock.fsm import (
    Fsm,
    FsmError,
    Kiss2FormatError,
    Transition,
    parse_kiss2,
    patterns_overlap,
    simulate_fsm,
    write_kiss2,
)


def test_parse_detector(detector):
    assert detector.input_width == 1
    assert detector.output_width == 1
    assert len(detector.states) == 4
    assert len(detector.transitions) == 8
    assert detector.reset_state == "S0"


def test_parse_single_state():
    fsm = parse_kiss2(".i 1\n.o 1\n.p 1\n.s 1\n.r s\n- s s 0\n")
    assert fsm.states == ("s",)


def test_parse_nondeterministic_overlap():
    text = ".i 1\n.o 1\n.p 2\n.s 3\n0 a b 0\n- a c 0\n"
    with pytest.raises(Kiss2FormatError, match="nondeterministic"):
        parse_kiss2(text)


def test_parse_header_mismatch():
    with pytest.raises(Kiss2FormatError, match=r"\.p declares"):
        parse_kiss2(".i 1\n.o 1\n.p 2\n.s 1\n- s s 0\n")
    with pytest.raises(Kiss2FormatError, match=r"\.s declares"):
        parse_kiss2(".i 1\n.o 1\n.p 1\n.s 3\n- s s 0\n")


def test_parse_bad_pattern_width():
    with pytest.raises(Kiss2FormatError, match="bad input pattern"):
        parse_kiss2(".i 2\n.o 1\n.p 1\n.s 1\n0 s s 0\n")


@pytest.mark.parametrize("directive", [".i", ".o", ".p", ".s"])
@pytest.mark.parametrize("value", ["x", "-1", "1.5", pytest.param("9" * 5000, id="5000-digits")])
def test_header_count_must_be_integer(directive, value):
    lines = [".i 1", ".o 1", ".p 1", ".s 1", "- s s 0"]
    lineno = [line.split()[0] for line in lines].index(directive) + 1
    lines[lineno - 1] = f"{directive} {value}"
    with pytest.raises(Kiss2FormatError, match="needs a non-negative integer") as exc:
        parse_kiss2("\n".join(lines) + "\n")
    assert exc.value.line == lineno


def test_reset_defaults_to_first_declared_state():
    fsm = parse_kiss2(".i 1\n.o 1\n.p 2\n.s 2\n0 a b 0\n- b a 1\n")
    assert fsm.reset_state == "a"


def test_unknown_reset_state():
    with pytest.raises(Kiss2FormatError, match="reset state"):
        parse_kiss2(".i 1\n.o 1\n.p 1\n.s 1\n.r zz\n- s s 0\n")


@pytest.mark.parametrize("name", corpus.available_machines())
def test_round_trip_fixed_point(name):
    first = corpus.load_kiss2(name)
    text = write_kiss2(first)
    second = parse_kiss2(text)
    assert first == second
    assert write_kiss2(second) == text


def test_write_single_state_header():
    fsm = parse_kiss2(".i 1\n.o 1\n.p 1\n.s 1\n- s s 0\n")
    assert ".s 1" in write_kiss2(fsm)


def test_simulate_detector_fires_on_1001(detector):
    outputs, states = simulate_fsm(detector, ["1", "0", "0", "1"])
    assert outputs == ["0", "0", "0", "1"]
    assert states == ["S1", "S2", "S3", "S1"]


def test_simulate_detector_all_zeros(detector):
    # hand trace: the machine never leaves S0 on zeros
    outputs, states = simulate_fsm(detector, ["0"] * 4)
    assert outputs == ["0"] * 4
    assert states == ["S0"] * 4


def test_simulate_detector_overlapping_hits(detector):
    outputs, _ = simulate_fsm(detector, list("1001001"))
    assert outputs == ["0", "0", "0", "1", "0", "0", "1"]


def test_simulate_empty_inputs(detector):
    assert simulate_fsm(detector, []) == ([], [])


def test_simulate_incomplete_machine():
    fsm = parse_kiss2(".i 1\n.o 1\n.p 2\n.s 2\n0 a b 0\n0 b a 0\n")
    with pytest.raises(FsmError, match="no transition"):
        simulate_fsm(fsm, ["1"])


def test_simulate_rejects_bad_vector(detector):
    with pytest.raises(FsmError, match="bad input vector"):
        simulate_fsm(detector, ["-"])


def test_patterns_overlap():
    assert patterns_overlap("0-", "01")
    assert not patterns_overlap("0-", "10")
    assert patterns_overlap("--", "11")


def test_simulate_never_sees_double_match():
    # determinism check and simulation agree on every corpus machine
    import itertools

    for name in corpus.available_machines():
        fsm = corpus.load_kiss2(name)
        for bits in itertools.product("01", repeat=fsm.input_width * 3):
            text = "".join(bits)
            vectors = [
                text[i : i + fsm.input_width] for i in range(0, len(text), fsm.input_width)
            ]
            try:
                simulate_fsm(fsm, vectors)
            except FsmError as exc:
                assert "nondeterministic" not in str(exc)


def test_programmatic_fsm_validation():
    bad = Fsm(
        input_width=1,
        output_width=1,
        states=("a",),
        reset_state="b",
        transitions=(Transition("0", "a", "a", "0"),),
    )
    from tklock.fsm import check_fsm

    with pytest.raises(FsmError, match="reset state"):
        check_fsm(bad)

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tklock import corpus
from tklock.fsm import (
    Fsm,
    FsmError,
    Kiss2FormatError,
    Transition,
    check_fsm,
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
    with pytest.raises(Kiss2FormatError) as caught:
        parse_kiss2(text)
    assert str(caught.value) == "line 6: nondeterministic transitions from 'a': patterns '0' and '-' overlap"


def test_nondeterminism_reports_the_first_overlapping_pair():
    # sources in order of first appearance, then the earlier transition of the
    # pair, then the later: 'a' is listed before 'b', so its pair (0-, -1) is
    # reported, though b's pair (00, -0) closes earlier in the file
    text = ".i 2\n.o 1\n0- a b 0\n1- a a 0\n00 b a 0\n-0 b b 1\n-1 a a 1\n-0 a b 1\n"
    message = "line 7: nondeterministic transitions from 'a': patterns '0-' and '-1' overlap"
    with pytest.raises(Kiss2FormatError) as caught:
        parse_kiss2(text)
    assert str(caught.value) == message
    fsm = Fsm(1, 1, "a", (Transition("1", "b", "a", "0"), Transition("-", "a", "a", "0"),
                          Transition("-", "b", "b", "0"), Transition("0", "a", "b", "1")))
    with pytest.raises(FsmError) as caught:
        check_fsm(fsm)
    assert str(caught.value) == "nondeterministic transitions from 'b': patterns '1' and '-' overlap"


def test_parse_header_mismatch():
    with pytest.raises(Kiss2FormatError, match=r"^line 3: \.p declares"):
        parse_kiss2(".i 1\n.o 1\n.p 2\n.s 1\n- s s 0\n")
    with pytest.raises(Kiss2FormatError, match=r"^line 4: \.s declares"):
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
    with pytest.raises(Kiss2FormatError, match="^line 5: reset state"):
        parse_kiss2(".i 1\n.o 1\n.p 1\n.s 1\n.r zz\n- s s 0\n")


@pytest.mark.parametrize("name", corpus.available_machines())
def test_round_trip_fixed_point(name):
    first = corpus.load_kiss2(name)
    text = write_kiss2(first)
    second = parse_kiss2(text)
    assert first == second
    assert write_kiss2(second) == text


# the two errors about the whole file, which no line can carry
_WHOLE_FILE_ERRORS = ("missing .i/.o headers", "no transitions")


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name", corpus.available_machines())
@given(data=st.data())
def test_parse_mutated_kiss2(name, data):
    """A corpus machine's text under insert, delete and copy-line edits either
    parses to a machine that round-trips through write_kiss2, or fails with a
    Kiss2FormatError that names a line of the text (bar the two errors about
    the whole file)."""
    text = corpus.read_text(f"{name}.kiss2")
    for _ in range(data.draw(st.integers(1, 4))):
        edit = data.draw(st.sampled_from(["insert", "delete", "copy-line"]))
        if edit == "insert":
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(".ipsr01-# \nxS")) + text[at:]
        elif edit == "delete" and text:
            at = data.draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1 :]
        elif edit == "copy-line":
            lines = text.split("\n")
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(lines)))
            text = "\n".join(lines)
    try:
        fsm = parse_kiss2(text)
    except Kiss2FormatError as exc:
        if str(exc) not in _WHOLE_FILE_ERRORS:
            assert exc.line is not None and 1 <= exc.line <= len(text.splitlines()), str(exc)
        return
    assert parse_kiss2(write_kiss2(fsm)) == fsm


@st.composite
def deterministic_fsms(draw):
    """Random deterministic machines with 0-3 input and output bits, and the
    one flaw each holds that KISS2 text cannot carry, or None. A state's input
    patterns care about the same positions and differ there, so no two
    overlap. About half the draws hold a flaw: a state name that is empty,
    holds whitespace or '#', or is a source starting with '.' where there is
    no input field, or a pattern character other than 0, 1 and -."""
    input_width = draw(st.integers(0, 3))
    output_width = draw(st.integers(0, 3))
    flaw_kind = draw(st.sampled_from(["none", "none", "state", "pattern"]))
    # '.e' is a name only where a transition line starts with its input field
    pool = ["s0", "s1", "idle", "7", "q_2", *([".e"] if input_width else [])]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    flaw = None
    if flaw_kind == "state":
        flaw = draw(st.sampled_from(["a b", "a\tb", " s", "a#b", "", *([] if input_width else [".e"])]))
        names[draw(st.integers(0, len(names) - 1))] = flaw
    transitions = []
    for src in names:
        cared = draw(st.lists(st.integers(0, input_width - 1), unique=True)) if input_width else []
        for value in draw(st.lists(st.integers(0, 2 ** len(cared) - 1), unique=True, max_size=4)):
            pattern = ["-"] * input_width
            for bit, pos in enumerate(cared):
                pattern[pos] = "01"[(value >> bit) & 1]
            outputs = draw(st.text("01-", min_size=output_width, max_size=output_width))
            transitions.append(Transition("".join(pattern), src, draw(st.sampled_from(names)), outputs))
    assume(transitions)
    transitions = draw(st.permutations(transitions))
    if flaw_kind == "pattern" and input_width + output_width:
        i = draw(st.integers(0, len(transitions) - 1))
        field = draw(st.sampled_from(["inputs"] * bool(input_width) + ["outputs"] * bool(output_width)))
        pattern = getattr(transitions[i], field)
        pos = draw(st.integers(0, len(pattern) - 1))
        flaw = pattern[:pos] + "x" + pattern[pos + 1 :]
        transitions[i] = transitions[i]._replace(**{field: flaw})
    fsm = Fsm(input_width, output_width, transitions[0].src, tuple(transitions))
    fsm = fsm._replace(reset_state=draw(st.sampled_from(fsm.states)))
    if flaw_kind == "state" and flaw not in fsm.states:
        flaw = None  # the flawed name has no transition
    if flaw == ".e" and all(t.src != flaw for t in fsm.transitions):
        flaw = None  # a destination field never starts a line
    return fsm, flaw


@settings(max_examples=100, deadline=None)
@given(case=deterministic_fsms())
def test_write_then_parse_is_identity(case):
    """Every machine KISS2 can state round-trips; check_fsm refuses every one
    with a flaw in a name or pattern."""
    fsm, flaw = case
    if flaw is not None:
        with pytest.raises(FsmError, match=re.escape(f"'{flaw}'")):
            check_fsm(fsm)
        return
    check_fsm(fsm)
    assert parse_kiss2(write_kiss2(fsm)) == fsm


@pytest.mark.parametrize(
    "fsm,flaw",
    [
        (Fsm(1, 1, "a b", (Transition("-", "a b", "a b", "0"),)), "a b"),
        (Fsm(0, 1, ".a", (Transition("", ".a", ".a", "0"),)), ".a"),
        (Fsm(1, 1, "a", (Transition("x", "a", "a", "0"),)), "x"),
    ],
    ids=["whitespace-state", "dot-state-no-inputs", "pattern-x"],
)
def test_check_refuses_what_kiss2_cannot_state(fsm, flaw):
    """write_kiss2 wrote each of these as text parse_kiss2 refuses."""
    with pytest.raises(FsmError, match=re.escape(f"'{flaw}'")):
        check_fsm(fsm)
    with pytest.raises(Kiss2FormatError):
        parse_kiss2(write_kiss2(fsm))


@pytest.mark.parametrize(
    "text", [".i 0\n.o 1\na .x 1\n", ".i 0\n.o 0\n.r .x\na .x\n"],
    ids=["dot-destination", "dot-reset-state"],
)
def test_dot_state_round_trips_where_it_does_not_start_a_line(text):
    """With no input field, a destination state may start with '.': only a
    source starts its transition's line."""
    fsm = parse_kiss2(text)
    assert parse_kiss2(write_kiss2(fsm)) == fsm


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
        reset_state="b",
        transitions=(Transition("0", "a", "a", "0"),),
    )
    with pytest.raises(FsmError, match="reset state"):
        check_fsm(bad)

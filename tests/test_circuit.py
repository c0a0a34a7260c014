import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock import corpus
from tklock.circuit import (
    BenchFormatError,
    Dff,
    Gate,
    Netlist,
    has_errors,
    parse_bench,
    structurally_equal,
    topo_order,
    validate,
    write_bench,
)
from tklock.fsm import Kiss2FormatError, parse_kiss2
from tklock.synth import random_netlist
from tests.bench_reference import kahn_by_name, reference_parse_bench


def test_parse_minimal_buf_circuit():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    assert n.inputs == ("a",)
    assert n.outputs == ("y",)
    assert n.gates == (Gate("y", "BUF", ("a",)),)
    assert n.dffs == ()


def test_parse_s27_names_and_counts(s27):
    assert s27.inputs == ("G0", "G1", "G2", "G3")
    assert s27.outputs == ("G17",)
    assert len(s27.gates) == 10
    assert len(s27.dffs) == 3
    assert {d.output for d in s27.dffs} == {"G5", "G6", "G7"}


def test_parse_undefined_fanin():
    with pytest.raises(BenchFormatError, match="undefined fanin net 'a'"):
        parse_bench("INPUT(b)\nOUTPUT(y)\ny = AND(a, b)")


def test_parse_undefined_output():
    with pytest.raises(BenchFormatError, match="undefined output net"):
        parse_bench("INPUT(a)\nOUTPUT(y)")


def test_parse_duplicate_driver_reports_line():
    text = "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)"
    with pytest.raises(BenchFormatError, match="line 4: duplicate driver"):
        parse_bench(text)


def test_parse_unknown_kind():
    with pytest.raises(BenchFormatError, match="unknown gate kind 'MAJ'"):
        parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = MAJ(a, b, c)")


def test_parse_combinational_cycle():
    text = "INPUT(i)\nOUTPUT(a)\na = AND(b, i)\nb = AND(a, i)"
    with pytest.raises(BenchFormatError, match="combinational cycle"):
        parse_bench(text)


def test_dff_breaks_cycle():
    text = "INPUT(i)\nOUTPUT(a)\na = AND(q, i)\nq = DFF(a)"
    n = parse_bench(text)
    assert not validate(n)


def test_parse_case_insensitive_kinds_and_buff_alias():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = buff(a)\nz = nand(a, y)")
    kinds = {g.output: g.kind for g in n.gates}
    assert kinds == {"y": "BUF", "z": "NAND"}


def test_parse_crlf_and_comments():
    n = parse_bench("# header\r\nINPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)  # trailing\r\n")
    assert n.gates[0].kind == "NOT"


def test_parse_arity_errors():
    with pytest.raises(BenchFormatError, match="NOT takes exactly one"):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)")
    with pytest.raises(BenchFormatError, match="at least two"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a)")


def test_multi_input_gates_accepted():
    n = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)")
    assert len(n.gates[0].fanins) == 4


@pytest.mark.parametrize("name", corpus.available_benches())
def test_round_trip_fixed_point(name):
    first = corpus.load_bench(name)
    text = write_bench(first)
    second = parse_bench(text, name=name)
    assert structurally_equal(first, second)
    # a second write is a byte-level fixed point
    assert write_bench(second) == text


@pytest.mark.parametrize("name", corpus.available_benches())
def test_corpus_validates_clean(name):
    assert validate(corpus.load_bench(name)) == []


def test_validate_duplicate_driver():
    n = Netlist(
        name="dup",
        inputs=("a",),
        outputs=("y",),
        gates=(Gate("y", "BUF", ("a",)), Gate("y", "NOT", ("a",))),
        dffs=(),
    )
    messages = [v.message for v in validate(n)]
    assert "duplicate driver: y" in messages


def test_validate_cycle():
    n = Netlist(
        name="cyc",
        inputs=("i",),
        outputs=("a",),
        gates=(Gate("a", "AND", ("b", "i")), Gate("b", "AND", ("a", "i"))),
        dffs=(),
    )
    assert any(v.kind == "cycle" for v in validate(n))


def test_validate_dangling_is_warning():
    n = Netlist(
        name="dangle",
        inputs=("a",),
        outputs=("y",),
        gates=(Gate("y", "BUF", ("a",)), Gate("z", "NOT", ("a",))),
        dffs=(),
    )
    violations = validate(n)
    assert [v.severity for v in violations] == ["warning"]
    assert not has_errors(violations)


def test_validate_undriven_output():
    n = Netlist(name="u", inputs=("a",), outputs=("y",), gates=(), dffs=())
    assert any(v.kind == "undriven" and v.net == "y" for v in validate(n))


def test_topo_chain():
    n = parse_bench("INPUT(a)\nOUTPUT(g2)\ng2 = NOT(g1)\ng1 = NOT(a)")
    assert [g.output for g in topo_order(n)] == ["g1", "g2"]


def test_topo_empty():
    n = Netlist(name="e", inputs=("a",), outputs=("a",), gates=(), dffs=())
    assert topo_order(n) == []


def _single_pass_reads_only_computed(netlist):
    # independent check: walking the order, every gate fanin must already be known
    known = set(netlist.inputs) | {d.output for d in netlist.dffs}
    for gate in topo_order(netlist):
        assert all(f in known for f in gate.fanins)
        known.add(gate.output)


def test_topo_s27_single_pass(s27):
    _single_pass_reads_only_computed(s27)
    assert sorted(g.output for g in topo_order(s27)) == sorted(g.output for g in s27.gates)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 6),
    n_dffs=st.integers(0, 6),
    n_gates=st.integers(1, 40),
)
def test_random_netlists_validate_and_round_trip(seed, n_inputs, n_dffs, n_gates):
    n = random_netlist(seed, n_inputs, n_dffs, n_gates, n_outputs=2, name="rand")
    assert validate(n) == []
    again = parse_bench(write_bench(n), name="rand")
    assert structurally_equal(n, again)
    _single_pass_reads_only_computed(n)


def test_write_bench_emits_dff_lines(s27):
    text = write_bench(s27)
    assert text.count("= DFF(") == 3
    assert "G5 = DFF(G10)" in text


_HEAD = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
# case id -> (text, line, message); messages and lines are part of the format contract
_PARSE_ERRORS = {
    "unrecognized": (_HEAD + "y = AND(a, b)\nwhat is this\n", 5, "unrecognized line: 'what is this'"),
    "no-equals": (_HEAD + "y AND(a, b)\n", 4, "unrecognized line: 'y AND(a, b)'"),
    "spaced-input": (_HEAD + "INPUT( c )\n", 4, "unrecognized line: 'INPUT( c )'"),
    "empty-fanin": (_HEAD + "y = AND(a,,b)\n", 4, "malformed fanin list: 'y = AND(a,,b)'"),
    "space-separated": (_HEAD + "y = AND(a b)\n", 4, "malformed fanin list: 'y = AND(a b)'"),
    "nested-paren": (_HEAD + "y = AND(a,(b))\n", 4, "malformed fanin list: 'y = AND(a,(b))'"),
    "trailing-comma": (_HEAD + "y = AND(a, b,)\n", 4, "malformed fanin list: 'y = AND(a, b,)'"),
    "empty-and": (_HEAD + "y = AND()\n", 4, "AND takes at least two fanins"),
    "blank-and": (_HEAD + "y = AND(  )\n", 4, "AND takes at least two fanins"),
    "empty-dff": (_HEAD + "y = DFF()\n", 4, "DFF takes exactly one fanin"),
    "wide-dff": (_HEAD + "y = DFF(a, b)\n", 4, "DFF takes exactly one fanin"),
    "wide-buf": (_HEAD + "y = BUF(a, b)\n", 4, "BUF takes exactly one fanin"),
    "wide-buff-alias": (_HEAD + "y = buff(a, b)\n", 4, "BUF takes exactly one fanin"),
    "narrow-nand": (_HEAD + "y = nand(a)\n", 4, "NAND takes at least two fanins"),
    "duplicate-output": (_HEAD + "OUTPUT(y)\ny = AND(a, b)\n", 4, "duplicate output declaration 'y'"),
    "input-then-gate": (_HEAD + "a = NOT(b)\ny = AND(a, b)\n", 4, "duplicate driver for net 'a'"),
    "gate-then-input": (_HEAD + "y = AND(a, b)\ninput(y)\n", 5, "duplicate driver for net 'y'"),
    "duplicate-before-kind": (_HEAD + "y = AND(a, b)\ny = MAJ(a, b)\n", 5, "duplicate driver for net 'y'"),
    "unknown-kind": (_HEAD + "y = Maj(a, b)\n", 4, "unknown gate kind 'Maj'"),
    "undefined-fanin": (_HEAD + "y = AND(a, c)\nz = OR(c, d)\n", 4, "undefined fanin net 'c'"),
    "undefined-dff-fanin": (_HEAD + "y = AND(a, b)\nq = DFF(d)\nz = OR(d, e)\n", 5, "undefined fanin net 'd'"),
    "undefined-output": (_HEAD + "OUTPUT(z)\ny = AND(a, b)\n", 4, "undefined output net 'z'"),
    "fanin-before-output": (_HEAD + "OUTPUT(z)\ny = AND(a, c)\n", 5, "undefined fanin net 'c'"),
    "cycle": (_HEAD + "y = AND(a, w)\nw = OR(v, b)\nv = NOT(w)\n", 6, "combinational cycle through net 'v'"),
    "self-loop": (_HEAD + "y = AND(y, a)\n", 4, "combinational cycle through net 'y'"),
}


@pytest.mark.parametrize("text, line, message", list(_PARSE_ERRORS.values()), ids=list(_PARSE_ERRORS))
def test_parse_error_messages_and_lines(text, line, message):
    with pytest.raises(BenchFormatError) as caught:
        parse_bench(text)
    assert caught.value.line == line
    assert str(caught.value) == f"line {line}: {message}"


def _parse_outcome(parse, text):
    try:
        return parse(text, name="t")
    except BenchFormatError as exc:
        return exc.line, str(exc)


def _assert_parses_like_reference(text):
    """Same netlist and topological order as the reference, or the same error."""
    got, want = _parse_outcome(parse_bench, text), _parse_outcome(reference_parse_bench, text)
    assert got == want
    if isinstance(want, Netlist):
        assert topo_order(got) == kahn_by_name(want)[0]


@pytest.mark.parametrize(
    "text",
    [
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny=AND( a ,b )\n",
        "input (a)\r\nInPuT(b)\r\noutput(y)\r\ny\t=\tnand\t(a,\tb)  # note\r\n",
        "INPUT(a)\nOUTPUT(y)\nOUTPUT(q)\ny = BUFF(\xa0a\xa0)\nq = dff (y)\n",
        "OUTPUT(y)\ny = XOR(a, b, q)\nq = DFF(y)\nINPUT(b)\nINPUT(a)\n",
    ],
    ids=["spaces", "tabs-crlf-case", "nbsp-alias-dff", "forward-references"],
)
def test_parse_layout_variants_match_reference(text):
    assert isinstance(reference_parse_bench(text), Netlist)
    _assert_parses_like_reference(text)


# characters that split lines, end names or fanin lists, or start comments
_MUTATION_CHARS = "()=,# \t\r\n\x0b\x85\u2028aANI0_"


@st.composite
def _mutated_bench_text(draw, edits=("insert", "space", "delete", "rename", "copy-line")):
    """`write_bench` text of a random netlist under a few character and token edits."""
    netlist = random_netlist(
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 3)),
        draw(st.integers(1, 12)),
        n_outputs=2,
    )
    text = write_bench(netlist)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(edits))
        if edit == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(_MUTATION_CHARS)) + text[at:]
        elif edit == "space":
            # whitespace beside punctuation, which the format allows
            marks = [m.start() for m in re.finditer(r"[(),=]", text)]
            if marks:
                at = draw(st.sampled_from(marks)) + draw(st.integers(0, 1))
                text = text[:at] + draw(st.sampled_from(" \t\xa0")) + text[at:]
        elif edit == "delete" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1 :]
        elif edit == "rename":
            # a name in parentheses becomes a gate output: cycles, duplicate nets
            gates = [m.group() for m in re.finditer(r"\bN\d+\b", text)]
            read = [m.span() for m in re.finditer(r"(?<=[( ])[IQN]\d+(?=[,)])", text)]
            if read and gates:
                start, end = draw(st.sampled_from(read))
                text = text[:start] + draw(st.sampled_from(gates)) + text[end:]
        elif edit == "copy-line":
            lines = text.split("\n")
            line = draw(st.sampled_from(lines))
            lines.insert(draw(st.integers(0, len(lines))), line)
            text = "\n".join(lines)
    return text


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(_mutated_bench_text(), _mutated_bench_text(edits=("rename",))))
def test_parse_matches_reference_on_mutated_netlists(text):
    _assert_parses_like_reference(text)


_BENCH_ALPHABET = st.sampled_from(
    ["INPUT", "OUTPUT", "input", "AND", "nand", "BUFF", "NOT", "DFF", "MAJ", "a", "b", "y",
     "(", ")", "=", ",", "#", " ", "\t", "\n", "\r", "\x0c", "\u2028", "\xa0"]
)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.text(max_size=80), st.lists(_BENCH_ALPHABET, max_size=40).map("".join)))
def test_parse_bench_raises_only_format_errors(text):
    # _parse_outcome lets any exception other than BenchFormatError escape
    _assert_parses_like_reference(text)


_KISS2_ALPHABET = st.sampled_from(
    [".i", ".o", ".p", ".s", ".r", ".e", ".ilb", ".x", " ", "\n", "#", "0", "1", "-", "2", "01",
     "s0", "s1", "\u0663", "-1"]
)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.text(max_size=80), st.lists(_KISS2_ALPHABET, max_size=40).map("".join)))
def test_parse_kiss2_raises_only_format_errors(text):
    try:
        parse_kiss2(text)
    except Kiss2FormatError:
        pass

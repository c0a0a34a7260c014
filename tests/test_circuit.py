import importlib.util
import re
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklock import circuit, corpus, structural
from tklock.circuit import (
    BenchFormatError,
    Dff,
    Gate,
    Netlist,
    Violation,
    parse_bench,
    structurally_equal,
    validate,
    write_bench,
)
from tklock.fsm import Kiss2FormatError, parse_kiss2
from tklock.keys import generate_key_schedule
from tklock.structural import lock_structural
from tklock.synth import random_netlist
from tests.bench_reference import kahn_by_name, reference_order, reference_parse_bench, reference_validate


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


_ROOT = Path(__file__).resolve().parent.parent


def _build_corpus_profiles() -> dict:
    """`PROFILES` of scripts/build_corpus.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location("build_corpus", _ROOT / "scripts" / "build_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROFILES


_CORPUS_PROFILES = _build_corpus_profiles()


@pytest.mark.parametrize("name", [name for name in corpus.available_benches() if name.endswith("_like")])
def test_corpus_regenerates_byte_for_byte(name):
    # the README says scripts/build_corpus.py generates the synthetic circuits
    seed, n_in, n_ff, n_gates, n_out = _CORPUS_PROFILES[name]
    netlist = random_netlist(seed, n_in, n_ff, n_gates, n_out, name=name)
    bundled = (_ROOT / "src" / "tklock" / "corpus" / f"{name}.bench").read_bytes()
    assert write_bench(netlist).encode("utf-8") == bundled


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
    n._require_valid()  # a warning is no error


def test_validate_undriven_output():
    n = Netlist(name="u", inputs=("a",), outputs=("y",), gates=(), dffs=())
    assert any(v.kind == "undriven" and v.net == "y" for v in validate(n))


def test_topo_chain():
    n = parse_bench("INPUT(a)\nOUTPUT(g2)\ng2 = NOT(g1)\ng1 = NOT(a)")
    assert [g.output for g in n._graph[1]] == ["g1", "g2"]


def test_graph_keeps_the_lines_when_they_are_in_topological_order():
    """The FIFO Kahn pass would put g3 before g2; every fanin is driven on an
    earlier line, so `_graph` takes the gates as written."""
    n = parse_bench("INPUT(a)\nOUTPUT(g2)\nOUTPUT(g3)\ng1 = NOT(a)\ng2 = NOT(g1)\ng3 = NOT(a)\n")
    assert n._graph[1] is n.gates
    assert [g.output for g in kahn_by_name(n)[0]] == ["g1", "g3", "g2"]


@pytest.mark.parametrize(
    "gates, order",
    [
        ((Gate("g1", "NOT", ("a",)), Gate("g2", "AND", ("g1", "u"))), ["g1", "g2"]),
        # each fanin's driver comes first, but g1 has two: the last, the BUF, stands for it
        ((Gate("g1", "NOT", ("a",)), Gate("g1", "BUF", ("a",)), Gate("g2", "NOT", ("g1",))), ["g1", "g2"]),
    ],
    ids=["undriven-fanin", "duplicate-driver"],
)
def test_graph_runs_the_kahn_pass_unless_each_net_has_one_earlier_driver(gates, order):
    """Netlists built in code, which `validate` reads through `_graph`."""
    n = Netlist(name="k", inputs=("a",), outputs=(), gates=gates, dffs=())
    assert [g.output for g in n._graph[1]] == order
    assert n._graph[1] is not n.gates and n._graph[2] is None


def test_topo_empty():
    n = Netlist(name="e", inputs=("a",), outputs=("a",), gates=(), dffs=())
    assert n._graph[1] == ()


def _single_pass_reads_only_computed(netlist):
    # independent check: walking the order, every gate fanin must already be known
    known = set(netlist.inputs) | {d.output for d in netlist.dffs}
    for gate in netlist._graph[1]:
        assert all(f in known for f in gate.fanins)
        known.add(gate.output)


def test_topo_s27_single_pass(s27):
    _single_pass_reads_only_computed(s27)
    assert sorted(g.output for g in s27._graph[1]) == sorted(g.output for g in s27.gates)


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


_DEFECTS = ("input-gate", "gate-gate", "dff-gate", "undriven", "cycle", "dangling", "duplicate-output")


@st.composite
def _defective_netlists(draw):
    """A `random_netlist` with defects injected in code: nets with two drivers
    (an input and a gate, two gates, a flip-flop and a gate), undriven fanins
    and outputs, rewired fanins that may close a cycle, and dangling nets."""
    n = random_netlist(
        draw(st.integers(0, 10_000)), draw(st.integers(1, 4)), draw(st.integers(0, 4)),
        draw(st.integers(1, 20)), n_outputs=2, name="defective",
    )
    inputs, outputs, gates, dffs = list(n.inputs), list(n.outputs), list(n.gates), list(n.dffs)

    def pick(seq):
        return seq[draw(st.integers(0, len(seq) - 1))]

    for i, defect in enumerate(draw(st.lists(st.sampled_from(_DEFECTS), min_size=1, max_size=4))):
        nets = inputs + [d.output for d in dffs] + [g.output for g in gates]
        at = draw(st.integers(0, len(gates)))
        if defect == "input-gate":
            if draw(st.booleans()):
                inputs.append(pick(gates).output)
            else:
                gates.insert(at, Gate(pick(inputs), "NOT", (pick(nets),)))
        elif defect == "gate-gate":
            gates.insert(at, Gate(pick(gates).output, "AND", (pick(nets), pick(nets))))
        elif defect == "dff-gate":
            if dffs and draw(st.booleans()):
                gates.insert(at, Gate(pick(dffs).output, "BUF", (pick(nets),)))
            else:
                dffs.append(Dff(pick(gates).output, pick(nets)))
        elif defect == "undriven":
            where = draw(st.sampled_from(("fanin", "output", "dff")))
            if where == "fanin":
                g = draw(st.integers(0, len(gates) - 1))
                gates[g] = gates[g]._replace(fanins=(f"U{i}", *gates[g].fanins[1:]))
            elif where == "output" or not dffs:
                outputs.append(f"U{i}")
            else:
                d = draw(st.integers(0, len(dffs) - 1))
                dffs[d] = dffs[d]._replace(input=f"U{i}")
        elif defect == "cycle":
            # a fanin from the gate itself or a later one; closes a cycle when that gate reads this one
            g = draw(st.integers(0, len(gates) - 1))
            later = gates[draw(st.integers(g, len(gates) - 1))].output
            gates[g] = gates[g]._replace(fanins=(later, *gates[g].fanins[1:]))
        elif defect == "dangling":
            if len(outputs) > 1 and draw(st.booleans()):
                outputs.remove(pick(outputs))
            else:
                gates.insert(at, Gate(f"D{i}", "NOT", (pick(nets),)))
        else:
            outputs.append(pick(outputs))
    return Netlist("defective", tuple(inputs), tuple(outputs), tuple(gates), tuple(dffs))


@settings(max_examples=300, deadline=None)
@given(netlist=_defective_netlists())
def test_validate_matches_reference_on_defective_netlists(netlist):
    assert validate(netlist) == reference_validate(netlist)


def test_write_bench_text_with_and_without_flip_flops():
    """One line per declaration, a blank line after the inputs, after the
    outputs and after any flip-flops, and a final line break."""
    text = "# t\nINPUT(a)\n\nOUTPUT(y)\n\nq = DFF(y)\n\ny = AND(a, q)\n"
    assert write_bench(parse_bench(text, name="t")) == text
    comb = "# c\nINPUT(a)\nINPUT(b)\n\nOUTPUT(y)\n\ny = OR(a, b)\n"
    assert write_bench(parse_bench(comb, name="c")) == comb
    assert write_bench(parse_bench("INPUT(a)\nOUTPUT(a)\n", "wire")) == "# wire\nINPUT(a)\n\nOUTPUT(a)\n\n"


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
    "driven-later-then-undefined": (_HEAD + "q = DFF(n)\ny = AND(a, m)\nn = NOT(a)\n", 5, "undefined fanin net 'm'"),
    "undefined-third-fanin": (_HEAD + "y = AND(a, b, c)\n", 4, "undefined fanin net 'c'"),
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
        assert list(got._graph[1]) == reference_order(want)
        # the compiled form and the locker trust a parsed netlist to have no error
        assert all(v.severity != "error" for v in validate(got))


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


_BREAKS = ("\r\n", "\n", "\r", "\x0b", "\u2028")


def _long_text(tail: str) -> str:
    """A text of three parse chunks (64 KiB each), its line breaks of every
    kind `str.splitlines` knows, with `tail` after 5,000 gate lines."""
    lines = ["INPUT(a)", "OUTPUT(y)", "g0 = NOT(a)"]
    lines += [f"g{i} = AND(g{i - 1}, a)  # comment" for i in range(1, 5000)]
    lines += tail.splitlines()
    return "".join(line + _BREAKS[n % len(_BREAKS)] for n, line in enumerate(lines))


@pytest.mark.parametrize(
    "tail",
    ["y = BUF(g4999)", "y = BUF(zz)", "y = AND(g4999, w)\nw = NOT(y)", "y = BUF(g4999)\nz = y"],
    ids=["clean", "undefined-fanin", "cycle", "unrecognized"],
)
def test_long_text_parses_like_reference(tail):
    text = _long_text(tail)
    assert len(text) > 2 << 16
    _assert_parses_like_reference(text)


_WIDE_HEAD = "".join(f"INPUT({net})\n" for net in "abcdef") + "OUTPUT(y)\nOUTPUT(z)\n"


# random netlists have at most 3 fanins per gate; these reach 4 and 6, with a
# space, a tab or a no-break space on both sides of every comma
@pytest.mark.parametrize(
    "text, error",
    [
        (_WIDE_HEAD + "y = AND(a ,\tb\t,\xa0c\xa0, d)\nz = xor(a\t, b ,\xa0c\xa0,\td , e\t,\xa0f)\n", None),
        (_WIDE_HEAD + "y = AND(a ,\tb\t,\xa0c\xa0, w , e\t,\xa0f)\nz = OR(a, b)\n", (9, "undefined fanin net 'w'")),
        (
            _WIDE_HEAD + "y = NAND(a ,\tb\t,\xa0c\xa0, d , e\t,\xa0w)\nw = NOT(y)\nz = BUF(w)\n",
            (10, "combinational cycle through net 'w'"),
        ),
    ],
    ids=["wide-4-and-6", "undefined-4th-fanin", "cycle-through-last-fanin"],
)
def test_wide_gates_parse_like_reference(text, error):
    _assert_parses_like_reference(text)
    got = _parse_outcome(parse_bench, text)
    if error is None:
        assert [len(g.fanins) for g in got.gates] == [4, 6]
    else:
        line, message = error
        assert got == (line, f"line {line}: {message}")


@pytest.mark.parametrize(
    "text",
    [
        corpus.read_text("s27.bench"),
        _long_text("y = BUF(g4999)"),
        "OUTPUT(y)\nOUTPUT(q)\ny = XOR(a, b, q)\nq = DFF(z)\nz = NOT(y)\nINPUT(b)\nINPUT(a)\n",
    ],
    ids=["s27", "long", "forward-references"],
)
def test_parse_shares_driver_names_and_builds_gates(text):
    netlist = parse_bench(text)
    # each net read is the very string its driver declared, so a name is stored once
    drivers = chain(netlist.inputs, (d.output for d in netlist.dffs), (g.output for g in netlist.gates))
    declared = {net: net for net in drivers}
    reads = chain.from_iterable(g.fanins for g in netlist.gates)
    for net in chain(reads, (d.input for d in netlist.dffs), netlist.outputs):
        assert net is declared[net]
    assert all(type(g) is Gate and g == Gate(*g) for g in netlist.gates)


@settings(max_examples=200, deadline=None)
@given(
    text=st.lists(st.sampled_from(("a", "#", " ", *_BREAKS, "\x0c", "\x1c", "\x85")), max_size=30).map("".join),
    size=st.integers(1, 6),
)
def test_chunked_lines_are_splitlines(text, size):
    chunks = list(circuit._chunks(text, size))
    assert "".join(chunks) == text
    assert [line for chunk in chunks for line in chunk.splitlines()] == text.splitlines()


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


def _validate_calls(monkeypatch, result=None) -> list:
    """Record each netlist that `validate` is called on, from any module;
    `result(netlist)` may stand in for the real check."""
    calls = []

    def counting(netlist):
        calls.append(netlist)
        return validate(netlist) if result is None else result(netlist)

    monkeypatch.setattr(circuit, "validate", counting)
    monkeypatch.setattr(structural, "validate", counting)
    return calls


def test_parsed_netlist_is_not_validated_again(monkeypatch):
    calls = _validate_calls(monkeypatch)
    netlist = parse_bench(corpus.read_text("s27.bench"), name="s27")
    assert netlist.compiled is netlist.compiled
    locked, _ = lock_structural(netlist, generate_key_schedule(2, 1, 0))
    # the lock checks its own output, and that check stands for the compile's
    assert len(calls) == 1 and calls[0] is locked
    locked.compiled
    assert len(calls) == 1


def test_netlist_built_in_code_is_validated_once(monkeypatch):
    calls = _validate_calls(monkeypatch)
    netlist = random_netlist(3, 3, 2, 12, n_outputs=2, name="rand")
    locked, _ = lock_structural(netlist, generate_key_schedule(2, 1, 0))
    netlist.compiled
    assert [id(n) for n in calls] == [id(netlist), id(locked)]


def test_netlist_built_in_code_with_error_is_refused():
    undriven = Netlist("u", ("a",), ("y",), (Gate("y", "AND", ("a", "zz")),), (Dff("q", "y"),))
    for _ in range(2):  # a failed check is not remembered as a pass
        with pytest.raises(ValueError, match="netlist 'u' fails validation"):
            undriven.compiled
        with pytest.raises(ValueError, match="netlist 'u' fails validation"):
            lock_structural(undriven, generate_key_schedule(2, 1, 0))


def test_lock_output_check_includes_warnings(monkeypatch, s27):
    dangling = [Violation("warning", "dangling", "x", "dangling net: x")]
    calls = _validate_calls(monkeypatch, lambda netlist: dangling)
    with pytest.raises(RuntimeError, match="locked netlist fails validation: dangling net: x"):
        lock_structural(s27, generate_key_schedule(2, 1, 0))
    assert len(calls) == 1

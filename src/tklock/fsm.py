"""Mealy state machines with KISS2 reading and writing.

Transitions carry input/output patterns over {0,1,-}; don't-cares are kept
symbolic and only interpreted when checking determinism or matching a
concrete input vector. A machine's states are its transitions' states, in
order of first appearance, as in KISS2 text, which has no state list.
"""

from __future__ import annotations

from typing import NamedTuple


class Kiss2FormatError(ValueError):
    """Malformed KISS2 text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class FsmError(ValueError):
    """Semantic state-machine error (nondeterminism, incomplete machine, ...)."""


class Transition(NamedTuple):
    inputs: str
    src: str
    dst: str
    outputs: str


class Fsm(NamedTuple):
    """A Mealy machine; its states are its transitions' states, in order of first appearance."""

    input_width: int
    output_width: int
    reset_state: str
    transitions: tuple[Transition, ...]

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(name for t in self.transitions for name in (t.src, t.dst)))


def patterns_overlap(a: str, b: str) -> bool:
    """True when two {0,1,-} patterns share at least one concrete vector."""
    return all(x == "-" or y == "-" or x == y for x, y in zip(a, b))


def check_fsm(fsm: Fsm) -> None:
    """Raise :class:`FsmError` for a machine that is malformed, nondeterministic
    or not writable as KISS2 text: fields are split on whitespace, ``#`` starts
    a comment, and with no input field a line starting with ``.`` is a directive."""
    if fsm.reset_state not in fsm.states:
        raise FsmError(f"reset state '{fsm.reset_state}' never appears in a transition")
    for state in fsm.states:
        if state.split() != [state] or "#" in state or (fsm.input_width == 0 and state[0] == "."):
            raise FsmError(f"state name '{state}' cannot be written as KISS2")
    for tr in fsm.transitions:
        if len(tr.inputs) != fsm.input_width:
            raise FsmError(f"input pattern '{tr.inputs}' does not match width {fsm.input_width}")
        if len(tr.outputs) != fsm.output_width:
            raise FsmError(f"output pattern '{tr.outputs}' does not match width {fsm.output_width}")
        for pattern in (tr.inputs, tr.outputs):
            if pattern.strip("01-"):
                raise FsmError(f"pattern '{pattern}' holds a character other than 0, 1 and -")
    by_src: dict[str, list[Transition]] = {}
    for tr in fsm.transitions:
        by_src.setdefault(tr.src, []).append(tr)
    for group in by_src.values():  # sources in order of first appearance
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if patterns_overlap(a.inputs, b.inputs):
                    raise FsmError(f"nondeterministic transitions from '{a.src}': "
                                   f"patterns '{a.inputs}' and '{b.inputs}' overlap")


def _header_count(parts: list[str], lineno: int) -> int:
    """The non-negative integer value of a `.i`/`.o`/`.p`/`.s` header."""
    directive, value = parts
    if value.isdecimal():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise Kiss2FormatError(f"{directive} needs a non-negative integer, got '{value}'", lineno)


def parse_kiss2(text: str) -> Fsm:
    """Parse KISS2 text into a validated :class:`Fsm`.

    Expects `.i .o .p .s` headers with transition lines of the form
    `inputs from to outputs`, where a zero-width pattern is left out. `.r`
    names the reset state and defaults to the source state of the first
    transition. `.ilb`/`.ob` name lines and `.e` are accepted and ignored.
    """
    input_width = output_width = None
    declared_terms = declared_states = None
    reset: str | None = None
    transitions: list[Transition] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive in (".ilb", ".ob"):
                continue
            if directive == ".e":
                break
            if len(parts) != 2:
                raise Kiss2FormatError(f"malformed directive '{line}'", lineno)
            if directive == ".i":
                input_width = _header_count(parts, lineno)
            elif directive == ".o":
                output_width = _header_count(parts, lineno)
            elif directive == ".p":
                declared_terms = _header_count(parts, lineno)
            elif directive == ".s":
                declared_states = _header_count(parts, lineno)
            elif directive == ".r":
                reset = parts[1]
            else:
                raise Kiss2FormatError(f"unknown directive '{directive}'", lineno)
            continue
        fields = line.split()
        # a zero-width pattern is written as nothing, so its field is absent
        if input_width == 0:
            fields.insert(0, "")
        if output_width == 0:
            fields.append("")
        if len(fields) != 4:
            raise Kiss2FormatError(f"expected 'inputs from to outputs', got '{line}'", lineno)
        ins, src, dst, outs = fields
        if input_width is None or output_width is None:
            raise Kiss2FormatError("transition before .i/.o headers", lineno)
        if len(ins) != input_width or set(ins) - set("01-"):
            raise Kiss2FormatError(f"bad input pattern '{ins}'", lineno)
        if len(outs) != output_width or set(outs) - set("01-"):
            raise Kiss2FormatError(f"bad output pattern '{outs}'", lineno)
        transitions.append(Transition(inputs=ins, src=src, dst=dst, outputs=outs))

    if input_width is None or output_width is None:
        raise Kiss2FormatError("missing .i/.o headers")
    if not transitions:
        raise Kiss2FormatError("no transitions")
    if declared_terms is not None and declared_terms != len(transitions):
        raise Kiss2FormatError(f".p declares {declared_terms} terms, found {len(transitions)}")
    fsm = Fsm(
        input_width=input_width,
        output_width=output_width,
        reset_state=transitions[0].src if reset is None else reset,
        transitions=tuple(transitions),
    )
    if declared_states is not None and declared_states != len(fsm.states):
        raise Kiss2FormatError(f".s declares {declared_states} states, found {len(fsm.states)}")
    try:
        check_fsm(fsm)
    except FsmError as exc:
        raise Kiss2FormatError(str(exc)) from exc
    return fsm


def write_kiss2(fsm: Fsm) -> str:
    """Emit KISS2 text that re-parses to an equal :class:`Fsm`."""
    lines = [
        f".i {fsm.input_width}",
        f".o {fsm.output_width}",
        f".p {len(fsm.transitions)}",
        f".s {len(fsm.states)}",
        f".r {fsm.reset_state}",
    ]
    lines += [f"{t.inputs} {t.src} {t.dst} {t.outputs}" for t in fsm.transitions]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def simulate_fsm(fsm: Fsm, inputs: list[str]) -> tuple[list[str], list[str]]:
    """Run the machine from reset over concrete input vectors.

    Returns (outputs, states) where outputs[i] is the Mealy output pattern of
    the transition taken at step i and states[i] the state entered after it.
    Raises :class:`FsmError` when no transition matches (incomplete machine)
    or when more than one matches (nondeterminism).
    """
    by_src: dict[str, list[Transition]] = {}
    for tr in fsm.transitions:
        by_src.setdefault(tr.src, []).append(tr)
    current = fsm.reset_state
    outputs: list[str] = []
    visited: list[str] = []
    for step, vector in enumerate(inputs):
        if len(vector) != fsm.input_width or set(vector) - set("01"):
            raise FsmError(f"step {step}: bad input vector '{vector}'")
        matches = [t for t in by_src.get(current, []) if patterns_overlap(t.inputs, vector)]
        if not matches:
            raise FsmError(f"step {step}: no transition from '{current}' on '{vector}'")
        if len(matches) > 1:
            raise FsmError(f"step {step}: nondeterministic match from '{current}' on '{vector}'")
        taken = matches[0]
        outputs.append(taken.outputs)
        current = taken.dst
        visited.append(current)
    return outputs, visited

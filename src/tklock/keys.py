"""Key schedules and the naming conventions shared by lockers and simulator.

A schedule is an ordered list of key values, one per counter time, applied
cyclically: the key expected at cycle t is ``keys[t mod period]``. Key bits
appear in a circuit as primary inputs ``keyinput0..keyinput{width-1}`` with
``keyinput0`` carrying the least significant bit. Both lock manifests store
their schedule as ``{"keys": [...], "width": n}`` and read it here.
"""

from __future__ import annotations

import random
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the behavioral lock needs keys but not circuit
    from .circuit import Netlist

KEY_INPUT_PREFIX = "keyinput"
COUNTER_NET_PREFIX = "cl_cnt"
LOCK_NET_PREFIX = "cl_"

_KEY_INPUT_RE = re.compile(rf"^{KEY_INPUT_PREFIX}\d+$")


class KeySchedule:
    """Ordered key values. `width` is the bit width of each value."""

    def __init__(self, keys: tuple[int, ...], width: int):
        if width < 1:
            raise ValueError("key width must be >= 1")
        if len(keys) < 1:
            raise ValueError("schedule must hold at least one key")
        for value in keys:
            if not 0 <= value < 2**width:
                raise ValueError(f"key value {value} out of range for width {width}")
        self.keys = keys
        self.width = width

    def __eq__(self, other) -> bool:
        return type(other) is KeySchedule and (self.keys, self.width) == (other.keys, other.width)

    @property
    def period(self) -> int:
        return len(self.keys)

    def key_at(self, cycle: int) -> int:
        return self.keys[cycle % len(self.keys)]

    def binary_strings(self) -> list[str]:
        return [to_binary(value, self.width) for value in self.keys]


def _field(doc: dict, name: str, kind: type, item: type | None = None, where: str = ""):
    """Manifest field ``doc[name]`` if it is a `kind` whose values are all
    `item`s (when given); otherwise ValueError naming the field. A JSON
    boolean is no int here, though Python's bool is one."""
    value = doc.get(name)
    values = value.values() if isinstance(value, dict) else value
    if not _is_a(value, kind) or (item and not all(_is_a(v, item) for v in values)):
        of = f" of {item.__name__}" if item else ""
        raise ValueError(f"manifest field '{where}{name}' is missing or not a {kind.__name__}{of}")
    return value


def _is_a(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _schedule_doc(schedule: KeySchedule) -> dict:
    """The ``schedule`` object that both lock manifests write."""
    return {"keys": list(schedule.keys), "width": schedule.width}


def _manifest_schedule(doc: dict) -> KeySchedule:
    """The ``schedule`` object of a lock manifest; ValueError naming a bad field."""
    schedule = _field(doc, "schedule", dict)
    keys = tuple(_field(schedule, "keys", list, int, "schedule."))
    width = _field(schedule, "width", int, where="schedule.")
    try:
        return KeySchedule(keys=keys, width=width)
    except ValueError as exc:
        field = "width" if width < 1 else "keys"
        raise ValueError(f"manifest field 'schedule.{field}' is invalid: {exc}") from None


def to_binary(value: int, width: int) -> str:
    """Format a key value as a binary string, most significant bit first."""
    return format(value, f"0{width}b")


def from_binary(text: str) -> int:
    if not text or set(text) - set("01"):
        raise ValueError(f"bad binary key string '{text}'")
    return int(text, 2)


def generate_key_schedule(num_keys: int, key_bits: int, seed: int) -> KeySchedule:
    """Draw a deterministic schedule of `num_keys` values of `key_bits` bits each.

    Repeats across values are permitted. Any `num_keys >= 2` is accepted here;
    the structural locker separately restricts its schedules to powers of two.
    """
    if num_keys < 2:
        raise ValueError("need at least 2 key values")
    if key_bits < 1:
        raise ValueError("key width must be >= 1")
    rng = random.Random(seed)
    return KeySchedule(
        keys=tuple(rng.randrange(2**key_bits) for _ in range(num_keys)),
        width=key_bits,
    )


def schedule_to_text(schedule: KeySchedule) -> str:
    """One binary string per line, most significant bit first."""
    return "\n".join(schedule.binary_strings()) + "\n"


def schedule_from_text(text: str) -> KeySchedule:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty key schedule")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("inconsistent key widths in schedule")
    return KeySchedule(keys=tuple(from_binary(row) for row in rows), width=width)


def parse_key_list(text: str) -> KeySchedule:
    """Parse a comma-separated list of binary key strings (MSB first)."""
    return schedule_from_text(text.replace(",", "\n"))


def key_input_names(width: int) -> list[str]:
    return [f"{KEY_INPUT_PREFIX}{b}" for b in range(width)]


def split_inputs(netlist: Netlist) -> tuple[list[str], list[str]]:
    """Split primary inputs into (non-key, key) lists, key inputs by bit index.

    Raises ValueError unless the ``keyinput<N>`` inputs are exactly
    ``key_input_names(w)`` for their count ``w``; any other set would bind an
    input to another key bit.
    """
    key = {name for name in netlist.inputs if _KEY_INPUT_RE.match(name)}
    names = key_input_names(len(key))
    if key != set(names):
        raise ValueError(f"key inputs {sorted(key)} are not {names[0]}..{names[-1]}")
    return [name for name in netlist.inputs if name not in key], names

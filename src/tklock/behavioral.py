"""State-machine-level time-keyed locking.

The lock takes a key schedule of ``k`` values of ``ki`` bits each. The
locked machine is the product of the original states with the counter
times 0..k-1. Key bits are prepended to the input pattern; a
transition out of ``s@t`` fires only when the key field carries the
scheduled value for time t, in which case the machine follows the original
edge into ``s'@((t+1) mod k)``. Every other key value diverts to a
seeded wrongful state at the next time. Mealy outputs are kept from the
original edge; corruption shows up through the state divergence on the
following cycles rather than through rewritten output labels.

Wrong-key values are covered by at most ``ki`` cube patterns (the
complement of the scheduled value split one flipped bit at a time), all of
which divert to the same wrongful state for a given (state, time, input).
"""

from __future__ import annotations

import json
import random
import re
from typing import NamedTuple

from .fsm import Fsm, Transition, check_fsm
from .keys import KeySchedule, _field, _read_manifest, _schedule_doc, to_binary

# manifest map keys, "state@time" and "state@time|input pattern"; only
# from_json reads them, so re compiles them on first use, not at import
_MAP_KEYS = {"state_map": r"(.*)@([0-9]+)", "wrongful_map": r"(.*)@([0-9]+)\|([^|]*)"}


class BehManifest(NamedTuple):
    """Record of the product construction."""

    schedule: KeySchedule
    # (original state, time) -> locked state name
    state_map: dict[tuple[str, int], str]
    # (original state, time, original input pattern) -> wrongful next original state
    wrongful_map: dict[tuple[str, int, str], str]

    def to_json(self) -> str:
        doc = {
            "schedule": _schedule_doc(self.schedule),
            "state_map": {f"{s}@{t}": name for (s, t), name in self.state_map.items()},
            "wrongful_map": {
                f"{s}@{t}|{pattern}": w for (s, t, pattern), w in self.wrongful_map.items()
            },
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BehManifest":
        """Raises ValueError, naming the field, on a malformed manifest."""
        doc, schedule = _read_manifest(text)
        maps = {}
        for name, form in _MAP_KEYS.items():
            maps[name] = table = {}
            for key, value in _field(doc, name, dict, str).items():
                match = re.fullmatch(form, key)
                if match is None:
                    raise ValueError(f"manifest field '{name}' has a malformed key '{key}'")
                state, time, *pattern = match.groups()
                table[(state, int(time), *pattern)] = value
        return cls(schedule, **maps)


def wrong_key_cubes(value: int, width: int) -> list[str]:
    """Cube patterns partitioning all width-bit values except `value`.

    Cube p agrees with `value` on the bits above position p (MSB first),
    flips bit p, and leaves the rest as don't-cares.
    """
    bits = to_binary(value, width)
    cubes = []
    for p in range(width):
        flipped = "1" if bits[p] == "0" else "0"
        cubes.append(bits[:p] + flipped + "-" * (width - 1 - p))
    return cubes


def lock_behavioral(fsm: Fsm, schedule: KeySchedule, seed: int = 0) -> tuple[Fsm, BehManifest]:
    """Lock `fsm` to `schedule`; returns the locked machine and its manifest.

    With ``k = schedule.period`` (any k >= 2) and ``ki = schedule.width``,
    the locked machine is deterministic, has ``len(states) * k`` states,
    input width ``ki + input_width`` (key bits first), and resets to the
    original reset state at time 0. `seed` draws the wrongful states.
    """
    k = schedule.period
    ki = schedule.width
    if k < 2:
        raise ValueError("num_keys must be >= 2")
    check_fsm(fsm)
    states = fsm.states
    rng = random.Random(seed)

    transitions: list[Transition] = []
    wrongful_map: dict[tuple[str, int, str], str] = {}
    for t in range(k):
        key_bits = to_binary(schedule.keys[t], ki)
        next_t = (t + 1) % k
        for tr in fsm.transitions:
            transitions.append(
                Transition(
                    inputs=key_bits + tr.inputs,
                    src=f"{tr.src}@{t}",
                    dst=f"{tr.dst}@{next_t}",
                    outputs=tr.outputs,
                )
            )
            others = [s for s in states if s != tr.dst]
            wrongful = rng.choice(others) if others else tr.dst  # a one-state machine has no other
            wrongful_map[(tr.src, t, tr.inputs)] = wrongful
            for cube in wrong_key_cubes(schedule.keys[t], ki):
                transitions.append(
                    Transition(
                        inputs=cube + tr.inputs,
                        src=f"{tr.src}@{t}",
                        dst=f"{wrongful}@{next_t}",
                        outputs=tr.outputs,
                    )
                )

    locked = Fsm(
        input_width=ki + fsm.input_width,
        output_width=fsm.output_width,
        reset_state=f"{fsm.reset_state}@0",
        transitions=tuple(transitions),
    )
    check_fsm(locked)
    manifest = BehManifest(
        schedule=schedule,
        state_map={(s, t): f"{s}@{t}" for t in range(k) for s in states},
        wrongful_map=wrongful_map,
    )
    return locked, manifest

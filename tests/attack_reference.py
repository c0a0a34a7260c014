"""Reference random-mode attack, kept to check the library's prefix search.

This is the loop that :func:`tklock.analysis.brute_force_attack` ran in
random mode before it searched key prefixes: it builds every one of the
``(2**key_bits)**num_keys`` candidates and runs one full
:func:`tklock.analysis.check_equivalence_random` per candidate, over the
attack's 256 seeded stimuli of 64 cycles. It is slow and plain on purpose;
the tests compare the prefix search's survivors, and their order, with it.
"""

from __future__ import annotations

from itertools import product

from tklock.analysis import _ATTACK_CYCLES, _ATTACK_SEQUENCES, check_equivalence_random
from tklock.keys import KeySchedule
from tklock.sim import KeyPolicy


def per_candidate_survivors(
    locked, oracle, num_keys: int, key_bits: int, seed: int = 0, first_values=None
) -> list:
    """Every candidate, in enumeration order, that one random check per
    candidate cannot tell apart from the oracle. With `first_values`, only
    the candidates whose first key value is among them are checked."""
    return [
        candidate
        for candidate in product(range(2**key_bits), repeat=num_keys)
        if (first_values is None or candidate[0] in first_values)
        and check_equivalence_random(
            oracle,
            locked,
            _ATTACK_SEQUENCES,
            _ATTACK_CYCLES,
            seed,
            key_policy=KeyPolicy.correct(KeySchedule(keys=candidate, width=key_bits)),
        ).equivalent
    ]

"""Per-lane reference for the successors of one joint state in the exhaustive
sweep.

:func:`lane_successors` steps both circuits over every input minterm, reads
each lane's next state back one flip-flop at a time, and keeps the first lane
that reaches each joint state. It shares no code with the class partition in
:meth:`tklock.analysis._JointSweep.expand`, so comparing the two checks the
partition against the lane-by-lane definition.
"""

from __future__ import annotations

from tklock.sim import PlaneSim


def _lane_value(plane: tuple[int, int], lane: int) -> int | None:
    h, x = plane
    if (x >> lane) & 1:
        return None
    return (h >> lane) & 1


def lane_next_states(sim: PlaneSim, state, planes, key_value) -> list[tuple[int | None, ...]]:
    """The next state of every lane after one unlatched cycle from `state`."""
    sim.load_state(state)
    sim.step(planes, key_value, latch=False)
    dff_planes = sim.next_state_planes()
    return [tuple(_lane_value(p, lane) for p in dff_planes) for lane in range(sim.lanes)]


def lane_successors(sa: PlaneSim, sb: PlaneSim, st_a, st_b, kv_a, kv_b, planes) -> dict:
    """Each distinct next joint state mapped to the lowest lane reaching it,
    in order of that lane."""
    nexts_a = lane_next_states(sa, st_a, planes, kv_a)
    nexts_b = lane_next_states(sb, st_b, planes, kv_b)
    successors: dict = {}
    for lane in range(sa.lanes):
        successors.setdefault((nexts_a[lane], nexts_b[lane]), lane)
    return successors

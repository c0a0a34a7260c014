"""Netlist-level time-keyed locking.

The transform takes a key schedule of ``k`` values of ``ki`` bits each and
adds, to a sequential `.bench` netlist:

* a shared key bus of ``ki`` new primary inputs,
* a free-running modulo-``k`` cycle counter (new DFFs resetting to 0)
  with a one-hot decode net per counter time,
* per locked flip-flop, a tree of 2-to-1 multiplexers: the first layer holds
  one ``2**ki``-to-1 mux per counter time whose select is the key bus,
  and the remaining layers combine those pairwise, selected by ORs of the
  one-hot time nets, so the counter steers the tree to the current time's
  first-layer mux. The final tree output drives the flip-flop's D input.

At counter time t the first-layer mux for t routes the flip-flop's original
next-state net only at data index ``schedule.keys[t]``; every other index is
wired to a "wrongful" source, the next-state net of some other flip-flop in
the design (or, in flip-flop-poor circuits, the complement of the correct
net). Driving the key bus with the scheduled value at every cycle therefore
reproduces the original circuit exactly; any other value loads the locked
flip-flops from the wrongful sources.

All multiplexers are decomposed into AND/OR/NOT. Added nets carry a ``cl_``
prefix (key inputs excepted) with deterministic indices, so a given netlist,
schedule, target choice and seed always produce byte-identical output.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .circuit import Dff, Gate, Netlist, validate
from .keys import (
    COUNTER_NET_PREFIX,
    KEY_INPUT_PREFIX,
    LOCK_NET_PREFIX,
    KeySchedule,
    _field,
    _read_manifest,
    _schedule_doc,
    key_input_names,
)


class LockedFf(NamedTuple):
    """Manifest record for one locked flip-flop."""

    ff_output_net: str
    correct_d_net: str
    mux_tree_output_net: str
    # (counter time, wrong key value) -> net loaded instead of the correct one
    wrongful_source_nets: dict[tuple[int, int], str]


class LockManifest(NamedTuple):
    """Everything the lock added, keyed by stable net names."""

    key_input_nets: list[str]
    counter_state_nets: list[str]
    onehot_time_nets: list[str]
    locked_ffs: list[LockedFf]
    schedule: KeySchedule
    layers: int

    def to_json(self) -> str:
        doc = {
            "schedule": _schedule_doc(self.schedule),
            "layers": self.layers,
            "key_input_nets": self.key_input_nets,
            "counter_state_nets": self.counter_state_nets,
            "onehot_time_nets": self.onehot_time_nets,
            "locked_ffs": [
                {
                    "ff_output_net": ff.ff_output_net,
                    "correct_d_net": ff.correct_d_net,
                    "mux_tree_output_net": ff.mux_tree_output_net,
                    "wrongful_source_nets": _wrongful_to_doc(ff.wrongful_source_nets),
                }
                for ff in self.locked_ffs
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LockManifest":
        """Raises ValueError, naming the field, on a malformed manifest."""
        doc, schedule = _read_manifest(text)
        locked_ffs = []
        for i, entry in enumerate(_field(doc, "locked_ffs", list, dict)):
            where = f"locked_ffs[{i}]."
            locked_ffs.append(
                LockedFf(
                    ff_output_net=_field(entry, "ff_output_net", str, where=where),
                    correct_d_net=_field(entry, "correct_d_net", str, where=where),
                    mux_tree_output_net=_field(entry, "mux_tree_output_net", str, where=where),
                    wrongful_source_nets=_wrongful_from_doc(
                        _field(entry, "wrongful_source_nets", dict, dict, where),
                        f"{where}wrongful_source_nets",
                    ),
                )
            )
        return cls(
            key_input_nets=_field(doc, "key_input_nets", list, str),
            counter_state_nets=_field(doc, "counter_state_nets", list, str),
            onehot_time_nets=_field(doc, "onehot_time_nets", list, str),
            locked_ffs=locked_ffs,
            schedule=schedule,
            layers=_field(doc, "layers", int),
        )


def _wrongful_to_doc(table: dict[tuple[int, int], str]) -> dict[str, dict[str, str]]:
    doc: dict[str, dict[str, str]] = {}
    for (time, value), net in sorted(table.items()):
        doc.setdefault(str(time), {})[str(value)] = net
    return doc


def _wrongful_from_doc(doc: dict[str, dict[str, str]], where: str) -> dict[tuple[int, int], str]:
    try:
        table = {
            (int(time), int(value)): net
            for time, row in doc.items()
            for value, net in row.items()
        }
        if all(isinstance(net, str) for net in table.values()):
            return table
    except ValueError:
        pass
    raise ValueError(f"manifest field '{where}' is not a table of nets by time and key value")


def tree_layers(num_keys: int) -> int:
    return num_keys.bit_length()  # log2(k) + 1 for powers of two


def added_mux_count(num_keys: int, key_bits: int) -> int:
    """2-to-1 multiplexers per locked flip-flop after decomposition."""
    return num_keys * (2**key_bits - 1) + (num_keys - 1)


def expected_added_gate_count(
    num_keys: int, key_bits: int, num_locked_ffs: int, fallback_ffs: int = 0
) -> int:
    """Closed-form gate delta of the transform (DFFs counted separately).

    Each 2-to-1 mux decomposes into two ANDs and an OR; select inverters are
    shared per distinct select signal. `fallback_ffs` counts locked flip-flops
    that needed a complement gate for their wrongful sources.
    """
    width = num_keys.bit_length() - 1
    counter_gates = 2 if num_keys == 2 else num_keys + 2 * width
    select_ors = num_keys // 2 - 1
    select_nots = num_keys - 1
    per_ff = 3 * added_mux_count(num_keys, key_bits)
    return (
        key_bits
        + counter_gates
        + select_ors
        + select_nots
        + num_locked_ffs * per_ff
        + fallback_ffs
    )


def select_lock_targets(
    netlist: Netlist, count: int, seed: int, explicit: list[str] | None = None
) -> list[Dff]:
    """Choose flip-flops to lock: the explicit list, or a seeded draw of `count`."""
    if explicit is not None:
        by_output = {d.output: d for d in netlist.dffs}
        targets = []
        for name in explicit:
            if name not in by_output:
                raise ValueError(f"unknown lock target '{name}'")
            targets.append(by_output[name])
        if len({t.output for t in targets}) != len(targets):
            raise ValueError("duplicate lock targets")
        return targets
    if count > len(netlist.dffs):
        raise ValueError(f"cannot lock {count} of {len(netlist.dffs)} flip-flops")
    rng = random.Random(seed)
    return rng.sample(list(netlist.dffs), count)


def wrongful_sources(
    netlist: Netlist,
    target: Dff,
    count: int,
    seed: int,
    complement_net: str,
) -> list[str]:
    """Pick `count` wrongful next-state sources for one locked flip-flop.

    Sources are the D-driver nets of other flip-flops, drawn round-robin from
    a seeded shuffle, so no extra logic is spent on wrong-key behaviour. When
    no other flip-flop offers a distinct D net, every slot falls back to the
    complement of the target's own D net (`complement_net` names the net a
    caller will create for that); the target's correct net itself never
    appears.
    """
    if not netlist.dffs:
        raise ValueError("netlist has no flip-flops")
    pool = list(dict.fromkeys(
        dff.input for dff in netlist.dffs if dff.output != target.output and dff.input != target.input
    ))
    if not pool:
        return [complement_net] * count
    rng = random.Random(seed)
    rng.shuffle(pool)
    return [pool[i % len(pool)] for i in range(count)]


def _mix_seed(seed: int, ff_index: int, time: int) -> int:
    return seed * 1_000_003 + ff_index * 8191 + time


def lock_structural(
    netlist: Netlist,
    schedule: KeySchedule,
    num_locked_ffs: int = 1,
    seed: int = 0,
    targets: list[str] | None = None,
) -> tuple[Netlist, LockManifest]:
    """Lock `netlist` to `schedule`; returns the locked netlist and its manifest.

    ``k = schedule.period`` (a power of two >= 2) and ``ki = schedule.width``.
    `targets` names the flip-flops to lock, and then `num_locked_ffs` is not
    read; otherwise `seed` draws `num_locked_ffs` of them. `seed` always
    seeds the wrongful sources. The input netlist is not modified. Original
    primary outputs, gates, and net names are preserved; only the locked
    flip-flops' D connections move onto the new mux trees.
    """
    k = schedule.period
    ki = schedule.width
    if k < 2 or k & (k - 1):
        raise ValueError("num_keys must be a power of two >= 2")
    if (num_locked_ffs if targets is None else len(targets)) < 1:
        raise ValueError("num_locked_ffs must be >= 1")
    netlist._require_valid()
    if not netlist.dffs:
        raise ValueError("netlist has no flip-flops to lock")
    for name in netlist._graph[0]:  # a netlist free of errors drives every net it names
        if name.startswith(LOCK_NET_PREFIX) or name.startswith(KEY_INPUT_PREFIX):
            raise ValueError(f"net '{name}' uses a reserved lock prefix; already locked?")

    width = k.bit_length() - 1
    locked_dffs = select_lock_targets(netlist, num_locked_ffs, seed, targets)

    gates: list[Gate] = list(netlist.gates)
    key_nets = key_input_names(ki)
    key_not = [f"cl_keyn{b}" for b in range(ki)]
    gates += [Gate(key_not[b], "NOT", (key_nets[b],)) for b in range(ki)]

    counter_nets = [f"{COUNTER_NET_PREFIX}{b}" for b in range(width)]
    onehot = [f"cl_t{j}" for j in range(k)]
    new_dffs: list[Dff] = []
    if width == 1:
        gates.append(Gate(onehot[0], "NOT", (counter_nets[0],)))
        gates.append(Gate(onehot[1], "BUF", (counter_nets[0],)))
        new_dffs.append(Dff(output=counter_nets[0], input=onehot[0]))
    else:
        counter_not = [f"cl_cntn{b}" for b in range(width)]
        gates += [Gate(counter_not[b], "NOT", (counter_nets[b],)) for b in range(width)]
        for j in range(k):
            literals = tuple(
                counter_nets[b] if (j >> b) & 1 else counter_not[b] for b in range(width)
            )
            gates.append(Gate(onehot[j], "AND", literals))
        for b in range(width):
            terms = tuple(onehot[j] for j in range(k) if (((j + 1) % k) >> b) & 1)
            gates.append(Gate(f"cl_cntd{b}", "OR", terms))
            new_dffs.append(Dff(output=counter_nets[b], input=f"cl_cntd{b}"))

    # Shared tree selects: level L combines blocks of 2**L counter times; the
    # select is the OR of the one-hot nets in the block's upper (bottom) half,
    # so select=1 routes the higher times through.
    select_net: dict[tuple[int, int], str] = {}
    select_not: dict[tuple[int, int], str] = {}
    for level in range(1, width + 1):
        nodes = k >> level
        half = 1 << (level - 1)
        for pos in range(nodes):
            lo = pos * (1 << level)
            bottom = [onehot[j] for j in range(lo + half, lo + (1 << level))]
            if len(bottom) == 1:
                sel = bottom[0]
            else:
                sel = f"cl_sel{level}_{pos}"
                gates.append(Gate(sel, "OR", tuple(bottom)))
            seln = f"cl_seln{level}_{pos}"
            gates.append(Gate(seln, "NOT", (sel,)))
            select_net[(level, pos)] = sel
            select_not[(level, pos)] = seln

    def mux(out: str, top: str, bottom: str, sel: str, seln: str) -> str:
        a, b = f"{out}a", f"{out}b"  # one string per net, shared by the OR's fanins
        gates.append(Gate(a, "AND", (top, seln)))
        gates.append(Gate(b, "AND", (bottom, sel)))
        gates.append(Gate(out, "OR", (a, b)))
        return out

    def mux_levels(nets: list[str], prefix: str, levels, select) -> str:
        """Mux `nets` down to one net, halving them once per level; mux ``p``
        of `level` is ``{prefix}{level}_{p}`` and selects on ``select(level, p)``."""
        for level in levels:
            nets = [
                mux(f"{prefix}{level}_{p}", nets[2 * p], nets[2 * p + 1], *select(level, p))
                for p in range(len(nets) // 2)
            ]
        return nets[0]

    def key_select(b: int, _) -> tuple[str, str]:
        return key_nets[b], key_not[b]

    def counter_select(level: int, p: int) -> tuple[str, str]:
        return select_net[level, p], select_not[level, p]

    locked_records: list[LockedFf] = []
    tree_out_by_ff: dict[str, str] = {}
    for fi, target in enumerate(locked_dffs):
        correct = target.input
        complement = f"cl_f{fi}_dcompl"
        complement_used = False
        wrongful_map: dict[tuple[int, int], str] = {}
        first_layer: list[str] = []
        for t in range(k):
            sources = wrongful_sources(
                netlist, target, 2**ki - 1, _mix_seed(seed, fi, t), complement
            )
            data: list[str] = []
            slot = 0
            for value in range(2**ki):
                if value == schedule.keys[t]:
                    data.append(correct)
                else:
                    net = sources[slot]
                    slot += 1
                    wrongful_map[(t, value)] = net
                    complement_used = complement_used or net == complement
                    data.append(net)
            first_layer.append(mux_levels(data, f"cl_f{fi}_t{t}_l", range(ki), key_select))
        if complement_used:
            gates.append(Gate(complement, "NOT", (correct,)))
        tree_out = mux_levels(first_layer, f"cl_f{fi}_c", range(1, width + 1), counter_select)
        tree_out_by_ff[target.output] = tree_out
        locked_records.append(
            LockedFf(
                ff_output_net=target.output,
                correct_d_net=correct,
                mux_tree_output_net=tree_out,
                wrongful_source_nets=wrongful_map,
            )
        )

    dffs = [
        Dff(output=d.output, input=tree_out_by_ff.get(d.output, d.input))
        for d in netlist.dffs
    ]
    locked = Netlist(
        name=f"{netlist.name}_locked",
        inputs=tuple(netlist.inputs) + tuple(key_nets),
        outputs=tuple(netlist.outputs),
        gates=tuple(gates),
        dffs=tuple(dffs) + tuple(new_dffs),
    )
    problems = validate(locked)
    if problems:
        raise RuntimeError(f"locked netlist fails validation: {problems[0].message}")
    locked._checked = True  # this check, warnings included, stands for the compile's
    manifest = LockManifest(
        key_input_nets=key_nets,
        counter_state_nets=counter_nets,
        onehot_time_nets=onehot,
        locked_ffs=locked_records,
        schedule=schedule,
        layers=tree_layers(k),
    )
    return locked, manifest

"""A fixed Python job that does not use tklock: how fast is the host now?

A shared host's speed can drift by 40% within minutes, and every job of a
run drifts with it. run.py times this script in fresh processes between the
jobs of a run and reports the run's pass time in units of its median
(``wall_rel``), so drift common to both cancels. Its work is that of a CLI
process starting: the interpreter, the stdlib modules tklock imports, about
two dozen dataclasses, a few regular expressions and an argument parser.
That start-up cost tracked the pass time of lockflow and keysearch more
closely than a compute loop did. It must never change: results are
comparable only under the same reference.
"""

import argparse
import json
import random
import re
import sys
import time
from collections import deque
from dataclasses import field, make_dataclass
from functools import cached_property
from importlib import resources
from itertools import product
from pathlib import Path


def main() -> None:
    classes = [
        make_dataclass(f"Record{i}", [("name", str), ("width", int), ("items", tuple, field(default=()))],
                       frozen=i % 2 == 0)
        for i in range(24)
    ]
    patterns = [re.compile(p) for p in (r"^(?P<a>\S+)\s*=\s*(?P<k>[A-Za-z]+)\((?P<r>.*)\)$",
                                        r"^(INPUT|OUTPUT)\((\S+)\)$", r"^\.(\w)\s+(\d+)$")]
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lock", "sim", "verify", "attack", "report"):
        p = sub.add_parser(name)
        for option in ("--in", "--out", "--manifest", "--seed", "--k", "--ki"):
            p.add_argument(option)
    args = parser.parse_args(["sim", "--in", "x", "--seed", "1"])
    rng = random.Random(len(classes))
    queue = deque(classes[rng.randrange(24)](args.command, i) for i in range(200))
    json.dumps({"n": len(queue), "p": len(patterns), "x": len(list(product(range(4), repeat=3))),
                "t": time.perf_counter() > 0, "v": sys.version_info[0], "r": resources.__name__,
                "c": cached_property.__name__, "f": Path(__file__).name})


if __name__ == "__main__":
    main()

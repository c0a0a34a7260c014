"""Run one ``tklock`` CLI command in this fresh process and report its timings.

Usage: python3 bench/child.py SRC_DIR REPORT TRACE [CLI ARGS...]

SRC_DIR is put first on ``sys.path`` so the checkout's own sources are the
ones measured. REPORT receives a JSON object with the monotonic time at which
``tklock.cli`` was imported and ready (the end of set-up), the import time,
the process's peak resident set size, and, with TRACE=1, the spans and
counters of :mod:`spans`. With no CLI
arguments the process only imports ``tklock.cli``, which compiles the
bytecode caches before anything is timed.
"""

import sys
import time


def peak_rss_kb() -> int:
    """VmHWM of this process's own address space. ``ru_maxrss`` would not do:
    on Linux it keeps the parent's high-water mark from before ``exec``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    src, report, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    started = time.perf_counter()
    import tklock.cli

    ready = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        return tklock.cli.main(cli_args) if cli_args else 0
    finally:
        import json

        doc = {"ready": ready, "import_s": ready - started, "peak_rss_kb": peak_rss_kb()}
        if tracer is not None:
            doc.update(tracer.report())
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())

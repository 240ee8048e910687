"""One set-up of an in-process workload, in a fresh interpreter.

Usage: ``python3 perfbench/probe.py <hot|curate> <trace 0|1>``.  Prints
``ready`` once the first operation could run; with trace 1 it then prints
the recorded spans (data generation, statistics collection) as JSON.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    workload, trace = argv[1], argv[2] == "1"
    recorder = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    import repro

    if workload == "hot":
        repro.connect("ldbc:small").session()
    elif workload == "curate":
        repro.connect("ldbc:small")
        repro.connect("bsbm:small")
    else:
        raise SystemExit("unknown workload %r" % workload)
    print("ready", flush=True)
    if recorder is not None:
        print(json.dumps([span.as_list() for span in recorder.spans]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

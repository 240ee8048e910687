"""Launch ``repro serve ldbc:small`` for the ``http-mixed`` workload.

Usage: ``python3 perfbench/serve.py <trace 0|1>``.  With trace 1 the layer
wrappers are installed in this (the server) process before the dataset is
generated; after SIGTERM stops the server, the recorded spans are printed
as one JSON line after the CLI's own output.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    recorder = None
    if argv[1] == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import SpanRecorder, install

        recorder = SpanRecorder("s")
        install(recorder)
    from repro.cli import main as cli_main

    # program defaults throughout: vector executor, parallelism 1, plan
    # cache of 512, no result cache, 30 s timeout
    code = cli_main(["serve", "ldbc:small", "--port", "0"])
    if recorder is not None:
        print(json.dumps([span.as_list() for span in recorder.spans]), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

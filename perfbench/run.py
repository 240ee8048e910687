"""The repository benchmark: one workload, one seed, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {curate,hot,http-mixed} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of the output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from spans the benchmark records around the program's entry points (see
``spans.py``).  Lines before it are a report for a human reader.  The
program under test is the ``repro`` package in the checkout's ``src``; it
is driven only through its public API.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("curate", "hot", "http-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.abspath("src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    import layers
    import workloads
    from harness import result_line

    runner = {
        "curate": workloads.run_curate,
        "hot": workloads.run_hot,
        "http-mixed": workloads.run_http_mixed,
    }[arguments.workload]
    run = runner(arguments.seed, arguments.seconds, bool(arguments.trace))

    if arguments.trace:
        metrics = {name: run.metrics.get(name, (0.0, unit)) for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {name: run.metrics[name] for name in workloads.END_TO_END}
    print("== %s seed %d, %g s, trace %d" % (arguments.workload, arguments.seed, arguments.seconds, arguments.trace))
    for line in run.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.4f %s" % (name, value, unit))
    outcome = run.outcome
    print("checked %d operations, %d failed (error_rate %.4f)"
          % (outcome.attempted, outcome.failed, outcome.failed / max(1, outcome.attempted)))
    for note in outcome.notes:
        print("  FAILED: %s" % note)
    print(result_line(outcome, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

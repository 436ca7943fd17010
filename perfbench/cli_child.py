"""Run the `sexpansion` CLI under the span tracer.

    python3 perfbench/cli_child.py TRACE_FILE <sexpansion arguments...>

The layer totals of the run are written to TRACE_FILE as JSON; the exit
code is the CLI's own. `src` must be on PYTHONPATH.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    from sexpansion import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""`betakit` CLI process with spans recorded, for traced cli-mix passes.

    python3 perfbench/cli_child.py SPANS_FILE ARG...

Behaves as ``python -m betakit ARG...`` (same stdout, stderr and exit
code) and writes {"spans": [...]} to SPANS_FILE when it ends.
"""

import json
import sys

import tracing

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import betakit.cli

    rec = tracing.install(betakit)
    code = 1
    try:
        code = betakit.cli.run_cli(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": rec.spans}, fh)
    sys.exit(code)

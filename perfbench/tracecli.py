"""Run one ``euler2c`` CLI command with its layers traced.

    python3 perfbench/tracecli.py SPANS_FILE CLI_ARG...

Behaves like ``python -m euler2c.cli CLI_ARG...`` (same output, same
exit code) and also writes the spans and counters of the process to
SPANS_FILE as JSON: a top-level ``import`` span for ``import euler2c``
and a ``cli.main`` span holding the traced library calls.
"""

import time

# The import span starts here, before the tracer's own imports, so that
# it covers everything ``import euler2c`` loads (numpy among it) as an
# untraced ``python -m euler2c.cli`` process pays for it.
T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, patched  # noqa: E402


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    from euler2c import cli
    tr = Tracer()
    tr.spans.append(["import", T0, time.perf_counter(), -1])
    rc = 0
    try:
        with patched(tr):
            rc = cli.main(cli_args) or 0
    except SystemExit as err:
        rc = err.code if isinstance(err.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tr.spans, "counters": tr.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

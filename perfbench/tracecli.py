"""``python -m qlorentz.cli`` with spans installed, for traced cli runs.

Usage: ``python perfbench/tracecli.py <qlorentz arguments>`` with
``PYTHONPATH=src``.  Stdout and the exit status are the command's own;
the last stderr line is ``PERFBENCH_TRACE <json>`` with the tracer's
payload: span stats, counts, observed records and the first spans.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import qlorentz.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer(keep=2_000)
    undo = spans.install(tracer)
    try:
        rc = qlorentz.cli.main(sys.argv[1:])
    finally:
        spans.uninstall(undo)
        sys.stdout.flush()
        print("PERFBENCH_TRACE " + json.dumps(tracer.payload()), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())

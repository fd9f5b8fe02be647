"""Traced CLI child: wrap the ``osr`` layers, then run ``osr.cli.main``.

Usage: ``python bench/cli_child.py SPANS_FILE OP_ID ARGV...``.  Standard
output and the exit code are those of ``osr.cli.main(ARGV)``; the spans are
written to SPANS_FILE as JSON when ``main`` returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Recorder, install  # noqa: E402  (the script's own dir)


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = Recorder()
    rec.current_op = op_id
    install(rec)
    import osr.cli

    try:
        return osr.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps(rec.dump()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

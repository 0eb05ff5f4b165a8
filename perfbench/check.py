"""Check a share of task outputs against the oracles; one checker process.

    python3 perfbench/check.py IN OUT

IN is a JSON list of ``{"task": ..., "output": ...}``; OUT receives a JSON
list of the matching :class:`oracles.Check` fields, in the same order.
``run.py`` starts a few of these after the timed worker has exited and
waits for each; nothing here imports zetalab.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def main(argv=None) -> int:
    src, dst = (argv if argv is not None else sys.argv[1:])
    items = json.loads(Path(src).read_text())
    results = [asdict(oracles.check(it["task"], it["output"])) for it in items]
    Path(dst).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

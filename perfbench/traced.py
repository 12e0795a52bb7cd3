"""Run one ``repro-mastodon`` invocation in-process under the layer wrappers.

Usage::

    python perfbench/traced.py --out layers.json -- run --all --preset tiny --seed 3

The argv after ``--`` goes to :func:`repro.cli.main` unchanged, so the
traced run takes the same code path as the timed one.  On exit the
per-layer metrics (:func:`layers.install`) are written to ``--out`` as
JSON, together with the CLI's own time outside every wrapped call
(``cli.self_s``) and the wall-clock instants ``main`` started and ended,
from which the launching process derives start-up and exit time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: traced.py --out FILE -- CLI-ARGS...", file=sys.stderr)
        return 2
    out = Path(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers

    recorder = layers.install()

    import repro.cli

    cli_main = recorder.timed("cli.self_s", repro.cli.main)
    started_at = time.time()
    try:
        code = cli_main(argv[3:])
    finally:
        metrics = recorder.finish()
        metrics["main_started_at"] = started_at
        metrics["main_ended_at"] = time.time()
        out.write_text(json.dumps(metrics, sort_keys=True))
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Check that two ``run --json`` result directories hold the same results.

Every entry path must reproduce the paper's figures identically: the
same preset and seed give the same result JSON whether ``run`` writes
its stores to a temporary directory or reads stores from a prior
``collect --columnar``.  Only volatile or path-bearing metadata may
differ.

Usage::

    python .github/scripts/compare_results.py EXPECTED_DIR ACTUAL_DIR

Exits non-zero, naming each differing file and key, if the two
directories hold different file sets or any result differs outside the
metadata keys ``elapsed_seconds``, ``corpus_dir`` and ``graph_dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

IGNORED = frozenset({"elapsed_seconds", "corpus_dir", "graph_dir"})


def load(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload["metadata"] = {
        key: value for key, value in payload["metadata"].items() if key not in IGNORED
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("expected", type=Path)
    parser.add_argument("actual", type=Path)
    args = parser.parse_args(argv)

    expected = sorted(path.name for path in args.expected.glob("*.json"))
    actual = sorted(path.name for path in args.actual.glob("*.json"))
    if not expected:
        print(f"error: no result files in {args.expected}/", file=sys.stderr)
        return 1
    if expected != actual:
        print(
            f"error: result sets differ: only in {args.expected}/: "
            f"{sorted(set(expected) - set(actual))}, only in {args.actual}/: "
            f"{sorted(set(actual) - set(expected))}",
            file=sys.stderr,
        )
        return 1
    differing = []
    for name in expected:
        want = load(args.expected / name)
        got = load(args.actual / name)
        if want != got:
            keys = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
            differing.append(f"{name} ({', '.join(keys)})")
    if differing:
        print("error: results differ: " + "; ".join(differing), file=sys.stderr)
        return 1
    print(f"{len(expected)} result file(s) identical (ignoring {', '.join(sorted(IGNORED))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

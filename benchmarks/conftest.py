"""Shared helpers for the scale benchmarks.

The paper's figures and tables are checked in
``tests/experiments/test_paper_shape.py``; the scripts here gate the
scale claims (engine, placement, sharding, failure models, corpus,
scenario, serve, resilience, observability overhead).  The ones with a
pytest entry point print their tables with
``pytest benchmarks/<script> --benchmark-only -s``.
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print a regenerated table/series block (visible with ``-s``)."""
    print(f"\n=== {title} ===\n{body}\n")

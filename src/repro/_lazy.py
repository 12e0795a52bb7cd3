"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule — and everything they import — as soon as any
one of them is touched.  :func:`attach` instead gives the package a
module ``__getattr__`` that imports the defining submodule on first
access to one of its names, so each entry point pays only for the
layers it actually runs.  Resolved names are cached on the package, so
later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """Return ``(__getattr__, __dir__, names)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``, e.g.
    ``".sweep"``) to the names the package re-exports from it; ``names``
    is every exported name, sorted, for building ``__all__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, sorted(origin)

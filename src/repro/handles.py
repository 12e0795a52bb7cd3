"""Account handles (``user@domain``), shared by the crawler and the stores."""

from __future__ import annotations

from repro.errors import DatasetError


def split_handle(handle: str) -> tuple[str, str]:
    """Split a ``user@domain`` handle into its username and domain parts.

    Malformed handles (no ``@``, or an empty side) raise
    :class:`~repro.errors.DatasetError` naming the offending handle, so
    corrupt crawl output fails loudly instead of silently passing the
    whole handle off as a "domain".
    """
    username, separator, domain = handle.rpartition("@")
    if not separator or not username or not domain:
        raise DatasetError(
            f"malformed account handle (expected 'user@domain'): {handle!r}"
        )
    return username, domain

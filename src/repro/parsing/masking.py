"""Variable masking applied before Drain template matching.

Real log parsers pre-mask obvious variable shapes (IPs, hex, numbers) so
the prefix tree keys on the stable tokens.  These regexes follow the
common Drain3-style defaults.

Each mask carries a *guard*: a literal its regex cannot match without
(uuid needs ``-``, ip_port ``:``, ip ``.``, hex ``0x``, path ``/``).
When the guard is absent from the message the substitution would be a
no-op, so :func:`mask_message` skips it; the result is exactly the
unguarded chain's.  ``None`` means the mask always runs.
"""

from __future__ import annotations

import re

__all__ = ["mask_message", "DEFAULT_MASKS", "WILDCARD"]

WILDCARD = "<*>"

# (name, guard literal or None, pattern).  Order matters: more specific
# shapes first.
DEFAULT_MASKS: tuple[tuple[str, str | None, re.Pattern], ...] = (
    ("uuid", "-", re.compile(r"\b[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}\b", re.I)),
    ("ip_port", ":", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}:\d+\b")),
    ("ip", ".", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b")),
    ("hex", "0x", re.compile(r"\b0x[0-9a-fA-F]+\b")),
    ("path", "/", re.compile(r"(?<![\w])/(?:[\w.-]+/)*[\w.-]+")),
    ("number", None, re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w])")),
)


def mask_message(message: str, masks=DEFAULT_MASKS) -> str:
    """Replace variable-shaped substrings with the ``<*>`` wildcard."""
    for _, guard, pattern in masks:
        if guard is None or guard in message:
            message = pattern.sub(WILDCARD, message)
    return message

r"""Variable masking applied before Drain template matching.

Real log parsers pre-mask obvious variable shapes (IPs, hex, numbers) so
the prefix tree keys on the stable tokens.  These regexes follow the
common Drain3-style defaults.

Each mask carries a *guard*: a literal its regex cannot match without
(uuid needs ``-``, ip_port ``:``, ip ``.``, hex ``0x``, path ``/``).
When the guard is absent from the message the substitution would be a
no-op, so :func:`mask_message` skips it; the result is exactly the
unguarded chain's.  ``None`` means the mask always runs.

No mask can match across a space, and ``\b``, ``(?<![\w.])`` and
``(?![\w])`` treat a space exactly like a string edge, so the chain
applied to a message equals ``" ".join`` of the chain applied to each
``message.split(" ")`` token (runs of spaces, tabs and empty tokens
included).  Given a caller-owned memo from token to masked token,
:func:`mask_message` masks that way, so a token seen before costs one
lookup.  Only tokens without a digit enter the memo: tokens with one
(ids, addresses, counters) seldom repeat, about 5% of their occurrences
on generated streams, and would only fill it.  The ``number`` mask
turns a non-empty all-ASCII-decimal token whole into ``<*>``, and no
other mask can touch it, so such tokens skip the chain.  The test asks
for ASCII because ``str.isdigit`` also accepts ``²``, which ``\d`` does
not match.
"""

from __future__ import annotations

import re

__all__ = ["mask_message", "DEFAULT_MASKS", "WILDCARD", "MASK_MEMO_CAP"]

WILDCARD = "<*>"

# Most entries a :func:`mask_message` memo keeps: a stream of ever-new
# tokens clears the memo when it fills rather than growing it.
MASK_MEMO_CAP = 4096

_DIGIT = re.compile(r"\d")

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


def mask_message(message: str, masks=DEFAULT_MASKS,
                 memo: dict[str, str] | None = None) -> str:
    """Replace variable-shaped substrings with the ``<*>`` wildcard.

    With a ``memo`` (token -> masked token, owned by the caller) and the
    default masks, the message is masked one space-separated token at a
    time through it; the result is the same.
    """
    if memo is None or masks is not DEFAULT_MASKS:
        return _mask_chain(message, masks)
    out = []
    for token in message.split(" "):
        masked = memo.get(token)
        if masked is None:
            if token.isdigit() and token.isascii():
                masked = WILDCARD
            else:
                masked = _mask_chain(token, masks)
                if _DIGIT.search(token) is None:
                    if len(memo) >= MASK_MEMO_CAP:
                        memo.clear()
                    memo[token] = masked
        out.append(masked)
    return " ".join(out)


def _mask_chain(message: str, masks) -> str:
    for _, guard, pattern in masks:
        if guard is None or guard in message:
            message = pattern.sub(WILDCARD, message)
    return message

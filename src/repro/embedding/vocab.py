"""Vocabulary construction shared by the embedding models."""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

__all__ = ["tokenize", "Vocabulary"]

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokenization (numbers kept as tokens)."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


class Vocabulary:
    """Token <-> id mapping with frequency counts and min-count filtering."""

    UNK = "<unk>"

    def __init__(self, min_count: int = 1, max_size: int | None = None):
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.min_count = min_count
        self.max_size = max_size
        self.counts: Counter[str] = Counter()
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._frozen = False

    def add_sentence(self, tokens: Iterable[str]) -> None:
        """Accumulate token counts from one sentence."""
        if self._frozen:
            raise RuntimeError("vocabulary is frozen; cannot add more sentences")
        self.counts.update(tokens)

    def build(self) -> "Vocabulary":
        """Freeze the vocabulary: assign ids by descending frequency."""
        ranked = [t for t, c in self.counts.most_common() if c >= self.min_count]
        if self.max_size is not None:
            ranked = ranked[: self.max_size]
        self._id_to_token = [self.UNK] + ranked
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        self._frozen = True
        return self

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Token id, 0 (UNK) if unknown."""
        return self._token_to_id.get(token, 0)

    def token_of(self, token_id: int) -> str:
        """Token string for a token id."""
        return self._id_to_token[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to ids (0 for unknown)."""
        return [self.id_of(t) for t in tokens]

    @property
    def tokens(self) -> list[str]:
        """All tokens in id order."""
        return list(self._id_to_token)

    def state(self) -> dict:
        """JSON-able state of a built vocabulary.  ``counts`` keeps every
        counted token, those below ``min_count`` included."""
        return {"tokens": self.tokens, "counts": dict(self.counts),
                "min_count": self.min_count, "max_size": self.max_size}

    @classmethod
    def from_state(cls, state: dict) -> "Vocabulary":
        """Rebuild the frozen vocabulary :meth:`state` describes."""
        vocabulary = cls(min_count=state["min_count"], max_size=state["max_size"])
        vocabulary.counts.update(state["counts"])
        vocabulary._id_to_token = list(state["tokens"])
        vocabulary._token_to_id = {t: i for i, t in enumerate(vocabulary._id_to_token)}
        vocabulary._frozen = True
        return vocabulary

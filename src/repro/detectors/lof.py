"""LOF-lite kNN-distance detector over ``repro.embedding`` vectors.

Each window is summarized as the normalized mean of its message
embeddings.  Next to a fitted pipeline the member embeds through the
pipeline's own sentence encoder (the registry passes it in); without
one it loads the cached pre-trained domain encoder
(:func:`repro.embedding.load_pretrained_encoder`).  Neither needs
per-system training, which is what makes this member usable on a day-0
system.
A message is embedded after :func:`repro.parsing.masking.mask_message`
replaces its parameter values (numbers, hex, IPs, paths, UUIDs) with
``<*>``, the same masks the admission parse applies, so the vector
carries the event's words rather than hash noise from one-off values.
One bounded FIFO memo, shared by all systems, maps each masked text to
its vector, so a template is encoded once however its values vary.
Per system it keeps a bounded FIFO of recent window vectors and scores
a new window by a local-outlier-factor ratio: the distance to its k-th
nearest reference vector, divided by the typical k-th-neighbor distance
seen on recent windows of the same system (a running median, so up to
half the recent windows can be anomalous without inflating the scale).
A window that sits inside the cloud of recent windows scores near
ratio 1; a window full of never-seen semantics sits far outside and
the ratio grows with the gap.

The scored vector is always folded into the reference buffer — novel
templates gradually become the new normal (drift tolerance), while a
short planted burst cannot dominate a buffer dozens of windows deep.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.parsing.masking import mask_message

from .base import Detector, calibrate

__all__ = ["LofLiteDetector"]

_EPS = 1e-9
# Masked texts whose vectors the detector keeps, oldest evicted first:
# about 1 MB at dim 64.
_MEMO_CAPACITY = 4096


class _ReferenceSet:
    """Per-system FIFO of window vectors and recent k-NN distances, plus
    the message embeddings of the system's previous window."""

    __slots__ = ("vectors", "distances", "embedded")

    def __init__(self) -> None:
        self.vectors: list[np.ndarray] = []
        self.distances: list[float] = []
        self.embedded: dict[str, np.ndarray] = {}


class LofLiteDetector(Detector):
    """kNN-distance member over window embedding centroids."""

    name = "lof"
    warmup_windows = 6

    def __init__(
        self,
        *,
        k: int = 3,
        capacity: int = 64,
        scale_window: int = 32,
        center: float = 2.0,
        scale: float = 0.5,
        encoder=None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if capacity <= k:
            raise ValueError(f"capacity must exceed k, got {capacity} <= {k}")
        self.k = k
        self.capacity = capacity
        self.scale_window = scale_window
        self.center = center
        self.scale = scale
        if encoder is None:
            from repro.embedding import load_pretrained_encoder

            # Resolved here, in set-up, not inside the first scored batch:
            # a cold load trains the encoder (about a second), and the
            # loader returns one cached object per process.
            encoder = load_pretrained_encoder()
        self.encoder = encoder
        self._references: dict[str, _ReferenceSet] = {}
        self._memo: dict[str, np.ndarray] = {}

    def _message_vector(self, message: str) -> np.ndarray:
        # Encoding is a pure function of the masked text, so the memo is
        # shared by every system and cannot change a score.
        masked = mask_message(message)
        memo = self._memo
        vector = memo.get(masked)
        if vector is None:
            vector = self.encoder.encode(masked)
            while len(memo) >= _MEMO_CAPACITY:
                memo.pop(next(iter(memo)))
            memo[masked] = vector
        return vector

    def _window_vector(self, state: _ReferenceSet, window: list) -> np.ndarray:
        # Consecutive windows overlap (step < window), so most messages
        # were embedded for the previous window already; mask and look up
        # only the rest.  Keeping just the previous window's map bounds it
        # by the window size.
        previous = state.embedded
        embedded: dict[str, np.ndarray] = {}
        for entry in window:
            message = entry.message
            if message not in embedded:
                vector = previous.get(message)
                embedded[message] = (self._message_vector(message)
                                     if vector is None else vector)
        state.embedded = embedded
        if not window:
            return np.zeros(self.encoder.dim, dtype=np.float32)
        matrix = np.stack([embedded[entry.message] for entry in window])
        vec = matrix.mean(axis=0)
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec = vec / norm
        return vec.astype(np.float32)

    def _knn_distance(self, vec: np.ndarray, refs: list[np.ndarray]) -> float:
        stack = np.stack(refs)
        distances = np.linalg.norm(stack - vec[None, :], axis=1)
        distances.sort()
        return float(distances[min(self.k, len(distances)) - 1])

    def score_window(self, system: str, window: list) -> float:
        state = self._references.setdefault(system, _ReferenceSet())
        vec = self._window_vector(state, window)
        score = 0.0
        if len(state.vectors) > self.k:
            distance = self._knn_distance(vec, state.vectors)
            reference = max(statistics.median(state.distances), _EPS) \
                if state.distances else _EPS
            if state.distances:
                ratio = distance / reference
                score = calibrate(ratio, center=self.center, scale=self.scale)
            state.distances.append(distance)
            if len(state.distances) > self.scale_window:
                state.distances.pop(0)
        state.vectors.append(vec)
        if len(state.vectors) > self.capacity:
            state.vectors.pop(0)
        return score

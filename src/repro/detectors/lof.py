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
``<*>``, so the vector carries the event's words rather than hash noise
from one-off values.  Those are the masks the admission parse applies:
a runtime entry whose admission parse masked it carries the text as
``masked`` and is not masked again; other entries (offline
:class:`~repro.logs.generator.LogRecord` windows, day-0 runtimes whose
admission does not parse) are masked here.
One bounded FIFO memo, shared by all systems, maps each masked text to
its vector, so a template is encoded once however its values vary.

Per system it keeps the vectors of its most recent windows in a
preallocated ``(capacity, dim)`` ring and scores a new window by a
local-outlier-factor ratio: the distance to its k-th nearest reference
vector, divided by the typical k-th-neighbor distance seen on recent
windows of the same system (a running median, so up to half the recent
windows can be anomalous without inflating the scale).  A window that
sits inside the cloud of recent windows scores near ratio 1; a window
full of never-seen semantics sits far outside and the ratio grows with
the gap.

A micro-batch is scored in one pass: one centroid mean per
window-length group, then the distances from every window of the batch
to the ring and to the batch's earlier windows in one array operation.
Window ``j`` of the batch is judged against exactly the references the
window-by-window order would give it (the ring's rows not yet
overwritten plus the batch's windows before ``j``); the k-th-neighbor
distance does not depend on row order, so the ring is never reordered.

The scored vector is always folded into the reference ring — novel
templates gradually become the new normal (drift tolerance), while a
short planted burst cannot dominate a ring dozens of windows deep.
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
# Most windows scored in one array pass; bounds the distance temporary
# at chunk x (capacity + chunk) x dim floats (2 MB at the defaults).
_CHUNK = 64


class _ReferenceSet:
    """Per-system ring of window vectors and recent k-NN distances, plus
    the message embeddings of the system's previous window."""

    __slots__ = ("ring", "seen", "distances", "embedded")

    def __init__(self, capacity: int, dim: int) -> None:
        # Window vector ``n`` of the system lives in row ``n % capacity``
        # until window ``n + capacity`` overwrites it.
        self.ring = np.zeros((capacity, dim), dtype=np.float32)
        self.seen = 0
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

    def _message_vector(self, entry) -> np.ndarray:
        # Encoding is a pure function of the masked text, so the memo is
        # shared by every system and cannot change a score.
        masked = getattr(entry, "masked", None)
        if masked is None:
            masked = mask_message(entry.message)
        memo = self._memo
        vector = memo.get(masked)
        if vector is None:
            vector = self.encoder.encode(masked)
            while len(memo) >= _MEMO_CAPACITY:
                memo.pop(next(iter(memo)))
            memo[masked] = vector
        return vector

    def _centroids(self, state: _ReferenceSet, windows: list[list]) -> np.ndarray:
        """The normalized mean message vector of each window, one row per
        window; an empty window is the zero vector."""
        dim = self.encoder.dim
        centroids = np.zeros((len(windows), dim), dtype=np.float32)
        # window length -> (positions, their message vectors in order)
        by_length: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        # Consecutive windows overlap (step < window), so most messages
        # were embedded for the previous window already; mask and look up
        # only the rest.  Keeping just the previous window's map bounds it
        # by the window size.
        previous = state.embedded
        for position, window in enumerate(windows):
            embedded: dict[str, np.ndarray] = {}
            for entry in window:
                message = entry.message
                if message not in embedded:
                    vector = previous.get(message)
                    embedded[message] = (self._message_vector(entry)
                                         if vector is None else vector)
            if window:
                positions, vectors = by_length.setdefault(len(window), ([], []))
                positions.append(position)
                vectors.extend(embedded[entry.message] for entry in window)
            previous = embedded
        state.embedded = previous
        for length, (positions, vectors) in by_length.items():
            centroids[positions] = np.array(vectors).reshape(
                len(positions), length, dim).mean(axis=1)
        for row in centroids:
            # Bit-identical to np.linalg.norm(row), without its dispatch.
            norm = np.sqrt(row.dot(row))
            if norm > 0:
                row /= norm
        return centroids

    def _score_chunk(self, state: _ReferenceSet, windows: list[list]) -> list[float]:
        vectors = self._centroids(state, windows)
        capacity, k, count = self.capacity, self.k, len(windows)
        # Row r < capacity of ``pool`` is ring row r; row capacity + i is
        # the chunk's window i.
        pool = np.concatenate((state.ring, vectors))
        # Bit-identical to np.linalg.norm(..., axis=2), without its copies.
        squares = pool[None, :, :] - vectors[:, None, :]
        squares *= squares
        distances = np.sqrt(np.add.reduce(squares, axis=2))
        # Window j is judged against each ring row as it stands once the
        # chunk's windows before j are folded in: row r holds the latest
        # window i < j with i = first[r] (mod capacity), else its own.
        rows = np.arange(capacity)
        first = (rows - state.seen) % capacity
        before = np.arange(count)[:, None]
        latest = first + capacity * ((before - 1 - first) // capacity)
        holds = np.where(first < before, capacity + latest, rows)
        gaps = np.take_along_axis(distances, holds, axis=1)
        # Rows still unfilled when window j is judged never count.
        filled = np.minimum(state.seen + before[:, 0], capacity)
        gaps[rows >= filled[:, None]] = np.inf
        kth = np.partition(gaps, k - 1, axis=1)[:, k - 1]
        scores: list[float] = []
        for distance, references in zip(kth.tolist(), filled.tolist()):
            score = 0.0
            if references > k:
                if state.distances:
                    reference = max(statistics.median(state.distances), _EPS)
                    score = calibrate(distance / reference,
                                      center=self.center, scale=self.scale)
                state.distances.append(distance)
                if len(state.distances) > self.scale_window:
                    state.distances.pop(0)
            scores.append(score)
        # Only the chunk's last ``capacity`` windows survive in the ring.
        keep = max(0, count - capacity)
        state.ring[(state.seen + np.arange(keep, count)) % capacity] = vectors[keep:]
        state.seen += count
        return scores

    def score_windows(self, system: str, windows: list[list]) -> list[float]:
        state = self._references.get(system)
        if state is None:
            state = _ReferenceSet(self.capacity, self.encoder.dim)
            self._references[system] = state
        scores: list[float] = []
        for start in range(0, len(windows), _CHUNK):
            scores.extend(self._score_chunk(state, windows[start:start + _CHUNK]))
        return scores

    def score_window(self, system: str, window: list) -> float:
        return self.score_windows(system, [window])[0]

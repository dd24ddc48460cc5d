"""One-time weight broadcast for the process executor.

A worker process must start *warm*: it needs the fitted model weights,
the per-system Drain trees, interpretations and event embeddings before
it scores its first batch.  Pickling all of that into every child's
spawn arguments would copy the (potentially large) float arrays once per
shard; instead the parent packs every array into **one shared-memory
arena** (:class:`WeightBroadcast`) and ships children a tiny picklable
:class:`BroadcastHandle` — segment name plus an offset/dtype/shape
manifest.  Children attach zero-copy read-only views; the one consumer
that must own mutable weights (:meth:`Module.load_state_dict`) copies
out of the view itself, so the arena can stay read-only for its whole
lifetime.

Non-array state (config, template stores, interpretations) is pickled
into the handle directly — it is small and irregular.  When shared
memory is unavailable (``use_shm=False``, import failure, or the
platform refusing the segment) the arrays degrade to an npz temp file
referenced by path: same handle shape, same attach API, just a copying
transport.

The parent owns the arena: :meth:`WeightBroadcast.unlink` removes the
``/dev/shm`` segment (or the npz file) at engine shutdown, and a
``weakref.finalize`` backstop does the same at garbage collection so a
crashed test run cannot leak segments.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArenaEntry", "BroadcastHandle", "AttachedBroadcast", "WeightBroadcast",
    "pipeline_state", "restore_pipeline",
]

# Cache-line alignment for each array's slice of the arena.
_ALIGN = 64

# Deterministic-per-process segment naming (pid + counter), so tests can
# glob /dev/shm for leaks and two engines in one process never collide.
_SEGMENT_COUNTER = itertools.count()


def _segment_name() -> str:
    return f"repro-bcast-{os.getpid()}-{next(_SEGMENT_COUNTER)}"


@dataclass(frozen=True)
class ArenaEntry:
    """Location of one array inside the arena."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class BroadcastHandle:
    """The picklable attachment recipe a child process receives.

    Exactly one of ``segment`` (shared-memory name) and ``npz_path``
    (fallback file) is set; ``meta_blob`` carries the pickled non-array
    state either way.
    """

    segment: str | None
    npz_path: str | None
    entries: tuple[ArenaEntry, ...]
    meta_blob: bytes
    total_bytes: int


class AttachedBroadcast:
    """A child-side view of a broadcast: ``arrays`` + ``meta``.

    Keeps the underlying shared-memory mapping alive for as long as the
    views are in use; ``close`` drops the mapping (never the segment —
    only the parent unlinks).
    """

    def __init__(self, arrays: dict[str, np.ndarray], meta, shm=None):
        self.arrays = arrays
        self.meta = meta
        self._shm = shm

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None


def _open_shared_memory(name: str | None, size: int = 0):
    """Create (``name`` given) or attach shared memory; isolates the
    import so environments without ``multiprocessing.shared_memory``
    degrade to the npz fallback instead of failing at import time."""
    from multiprocessing import shared_memory

    if name is None:
        return shared_memory.SharedMemory(create=True, size=max(1, size),
                                          name=_segment_name())
    return shared_memory.SharedMemory(name=name)


class WeightBroadcast:
    """Parent-side owner of one packed arena of named arrays."""

    def __init__(self, arrays: dict[str, np.ndarray], meta, *,
                 use_shm: bool = True):
        self._entries: list[ArenaEntry] = []
        self._shm = None
        self._npz_path: str | None = None
        self._meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        normalized = {key: np.ascontiguousarray(value)
                      for key, value in sorted(arrays.items())}
        offset = 0
        for key, value in normalized.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up to alignment
            self._entries.append(ArenaEntry(
                key=key, dtype=value.dtype.str, shape=tuple(value.shape),
                offset=offset, nbytes=value.nbytes,
            ))
            offset += value.nbytes
        self.total_bytes = offset
        if use_shm:
            try:
                self._shm = _open_shared_memory(None, size=self.total_bytes)
            except (ImportError, OSError):
                self._shm = None
        if self._shm is not None:
            view = self._shm.buf
            for entry, value in zip(self._entries, normalized.values()):
                target = np.ndarray(entry.shape, dtype=entry.dtype,
                                    buffer=view, offset=entry.offset)
                target[...] = value
        else:
            handle, path = tempfile.mkstemp(prefix="repro-bcast-",
                                            suffix=".npz")
            os.close(handle)
            self._npz_path = path
            # npz keys must be valid archive member names; arena keys may
            # contain '/', so store positionally and keep keys in entries.
            np.savez(path, **{f"a{i}": value
                              for i, value in enumerate(normalized.values())})
        self._finalizer = weakref.finalize(
            self, _cleanup, self._shm, self._npz_path)

    @property
    def via_shared_memory(self) -> bool:
        return self._shm is not None

    @property
    def segment_name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    def handle(self) -> BroadcastHandle:
        """The picklable recipe children attach with."""
        return BroadcastHandle(
            segment=self.segment_name,
            npz_path=self._npz_path,
            entries=tuple(self._entries),
            meta_blob=self._meta_blob,
            total_bytes=self.total_bytes,
        )

    def unlink(self) -> None:
        """Release the arena (idempotent): close + unlink the segment,
        or delete the fallback npz file."""
        self._finalizer.detach()
        _cleanup(self._shm, self._npz_path)
        self._shm = None
        self._npz_path = None


def _cleanup(shm, npz_path: str | None) -> None:
    # Already-gone segments/files are fine: unlink is idempotent and the
    # finalizer backstop may run after an explicit unlink().
    if shm is not None:
        shm.close()
        with contextlib.suppress(FileNotFoundError):
            shm.unlink()
    if npz_path is not None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(npz_path)


def attach(handle: BroadcastHandle) -> AttachedBroadcast:
    """Open a handle in this (child) process.

    Shared-memory handles yield zero-copy **read-only** views into the
    arena; npz handles load copies.  Either way ``meta`` is the
    unpickled non-array state.
    """
    meta = pickle.loads(handle.meta_blob)
    if handle.segment is not None:
        # Python 3.11 registers the segment with the resource tracker on
        # attach as well as create — but multiprocessing children share
        # the parent's tracker process, where re-registering a tracked
        # name is a no-op.  Unregistering here would strip the *parent's*
        # entry, so the tracker must be left alone on the attach side;
        # only WeightBroadcast.unlink releases the name.
        shm = _open_shared_memory(handle.segment)
        arrays: dict[str, np.ndarray] = {}
        for entry in handle.entries:
            view = np.ndarray(entry.shape, dtype=entry.dtype,
                              buffer=shm.buf, offset=entry.offset)
            view.flags.writeable = False
            arrays[entry.key] = view
        return AttachedBroadcast(arrays, meta, shm=shm)
    with np.load(handle.npz_path) as archive:
        arrays = {entry.key: archive[f"a{i}"]
                  for i, entry in enumerate(handle.entries)}
    return AttachedBroadcast(arrays, meta)


# ---------------------------------------------------------------------------
# LogSynergy pipeline packing: what `--model-dir` process mode broadcasts.
# ---------------------------------------------------------------------------

def pipeline_state(pipeline) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a fitted LogSynergy pipeline into (arrays, meta).

    Both halves are :meth:`~repro.core.pipeline.LogSynergy.state`'s: the
    arrays keyed ``model/<param>``, ``encoder/matrix`` and
    ``feat/<system>/<event_id>``, the meta the ``pipeline.json``
    manifest, so :func:`restore_pipeline` rebuilds a byte-equivalent
    replica, sentence encoder included, without touching disk.
    """
    if pipeline.model is None:
        raise ValueError("weight broadcast requires a fitted LogSynergy model")
    meta, arrays = pipeline.state()
    return arrays, meta


def restore_pipeline(attached: AttachedBroadcast, llm=None):
    """Rebuild a warm LogSynergy replica from an attached broadcast.

    The inverse of :func:`pipeline_state`, through
    :meth:`~repro.core.pipeline.LogSynergy.from_state`: the replica's
    sentence encoder is the broadcast one, so a shard process trains no
    word vectors.  Model weights and the encoder matrix are copied out
    of the read-only views; event embeddings stay zero-copy views (the
    featurizer never mutates them in place).
    """
    # Local import: this module must stay importable without pulling the
    # full model stack in (the synthetic process path never needs it).
    from ..core.pipeline import LogSynergy

    pipeline = LogSynergy.from_state(attached.meta, attached.arrays, llm=llm)
    # The zero-copy views stay backed by the attachment's mapping: if the
    # AttachedBroadcast were collected, SharedMemory.__del__ would unmap
    # the arena under them.  Pin it to the replica's lifetime.
    pipeline._broadcast_attachment = attached
    return pipeline

"""Span tracing from outside the program.

The program has no spans of its own on every layer boundary, so the
traced run wraps the public calls into each layer, in this process only:
:func:`install` swaps each listed function for a wrapper that records a
span (name, start, end, parent) and :func:`uninstall` puts the original
back.  Shard processes forked while the wrappers are installed inherit
them; the wrappers check the process id and pass straight through there,
because spans recorded in a child never reach home.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

# (module, owner attribute or None for a module-level function, function
# name, span name, size of the call or None).  The span name's first part
# is the layer.
TARGETS = (
    ("repro.parsing.template_store", "TemplateStore", "ingest", "parsing.ingest", None),
    ("repro.core.features", "SystemFeaturizer", "event_id_of", "features.event_id_of", None),
    ("repro.core.features", "SystemFeaturizer", "embed_messages", "features.embed_messages", None),
    ("repro.core.features", "SystemFeaturizer", "parse_sequences", "features.parse_sequences", None),
    ("repro.core.features", "SystemFeaturizer", "interpret_events", "features.interpret_events", None),
    ("repro.core.features", "SystemFeaturizer", "embed_events", "features.embed_events", None),
    ("repro.llm.interpreter", "EventInterpreter", "interpret_event", "llm.interpret_event", None),
    ("repro.embedding.encoder", "SentenceEncoder", "encode", "embedding.encode", None),
    ("repro.core.model", "LogSynergyModel", "predict_proba", "model.predict_proba",
     lambda args, kwargs: len(args[1])),
    ("repro.core.pipeline", "LogSynergy", "detect_stream_batch", "pipeline.detect_stream_batch", None),
    ("repro.core.trainer", "LogSynergyTrainer", "fit", "trainer.fit",
     lambda args, kwargs: len(args[1].anomaly_labels)),
    ("repro.detectors.ensemble", "Ensemble", "score_window", "detectors.ensemble", None),
    ("repro.detectors.ewma", "EwmaRateDetector", "score_window", "detectors.ewma", None),
    ("repro.detectors.lof", "LofLiteDetector", "score_window", "detectors.lof", None),
    ("repro.detectors.rules", "RuleDetector", "score_window", "detectors.rules", None),
    ("repro.detectors.model", "ModelDetector", "score_window", "detectors.model", None),
    ("repro.runtime.engine", "InferenceRuntime", "submit", "runtime.submit", None),
    ("repro.runtime.engine", "InferenceRuntime", "drain", "runtime.drain", None),
    ("repro.runtime.engine", "InferenceRuntime", "stop", "runtime.stop", None),
    ("repro.runtime.shard", "ShardState", "ingest", "runtime.shard_ingest", None),
    ("repro.runtime.shard", "ShardState", "score_batch", "runtime.shard_score_batch", None),
    ("repro.runtime.procexec", "ProcessShardExecutor", "submit", "procexec.submit", None),
    ("repro.runtime.procexec", "ProcessShardExecutor", "drain", "procexec.drain", None),
    ("repro.runtime.procexec", "ProcessShardExecutor", "stop", "procexec.stop", None),
    # build_report is imported by name, so each importing module's
    # binding is wrapped.
    ("repro.core.pipeline", None, "build_report", "report.build", None),
    ("repro.runtime.worker", None, "build_report", "report.build", None),
    ("repro.runtime.fallback", None, "build_report", "report.build", None),
    ("repro.runtime.replay", None, "render_reports", "replay.render", None),
)


class SpanRecorder:
    """In-memory spans of one thread: ``[name, start, end, parent, size]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, size=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, size])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []


def _wrap(recorder: SpanRecorder, name: str, size, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return function(*args, **kwargs)
        index = recorder.open(name, size(args, kwargs) if size else None)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(index)

    return traced


def install(recorder: SpanRecorder) -> list:
    """Wrap every target; returns what :func:`uninstall` needs."""
    import importlib

    saved = []
    for module_name, owner_name, attribute, name, size in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attribute]
        setattr(owner, attribute, _wrap(recorder, name, size, original))
        saved.append((owner, attribute, original))
    return saved


def uninstall(saved: list) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)


@dataclass
class LayerTimes:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    size: int = 0


def aggregate(spans: list[list]) -> dict[str, LayerTimes]:
    """Per span name: calls, inclusive time, self time (inclusive time
    minus the time its direct children cover) and summed call sizes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _size in spans:
        if end is None:
            raise RuntimeError(f"span {name} never closed")
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, LayerTimes] = {}
    for index, (name, start, end, _parent, size) in enumerate(spans):
        times = out.setdefault(name, LayerTimes())
        times.count += 1
        times.total += end - start
        times.self_time += (end - start) - child_time[index]
        times.size += size or 0
    return out

"""Online detection service: the front door of the §VI-A workflow.

collection (Filebeat) -> buffering (Kafka) -> formatting (LogStash)
-> pattern-library gate -> LogSynergy model -> alert routing.

``OnlineService`` is a thin facade over the ``repro.runtime`` sharded
inference engine in synchronous mode (deterministic, shard-count
invariant), which owns every stage up to the detector: ``process``
submits records straight into the runtime, whose bounded shard queue is
the transport buffer (``reject`` policy at ``buffer_capacity``; shed
records count on ``service.records_rejected``), and whose shards
normalize and window the stream, gate windows through per-system pattern
libraries and score the rest in micro-batched ``detect_stream_batch``
calls.  The service adds alert routing and the stable public surface
(``stats``, ``library``).  Statistics live in a ``repro.obs`` registry:
the runtime joins the globally installed registry when observability is
enabled and otherwise keeps a private one, so ``stats`` always reads live
numbers.
"""

from __future__ import annotations

from ..core.pipeline import LogSynergy
from ..core.report import AnomalyReport
from ..logs.generator import LogRecord
from ..obs import MetricsRegistry
from ..runtime import InferenceRuntime
from .alerting import AlertRouter

__all__ = ["OnlineService"]


class _LibraryView:
    """Aggregate read-view over the runtime's per-system pattern libraries."""

    def __init__(self, runtime):
        self._runtime = runtime

    def _libraries(self) -> list:
        return [library
                for shard in self._runtime.shards
                for library in shard.libraries.values()]

    def __len__(self) -> int:
        return sum(len(library) for library in self._libraries())

    def known_anomalous_patterns(self) -> int:
        """Count of remembered patterns judged anomalous, all systems."""
        return sum(library.known_anomalous_patterns()
                   for library in self._libraries())


class OnlineService:
    """Production-shaped online anomaly detection around a fitted model.

    With ``ensemble=`` the service instead fronts a
    :class:`repro.detectors.Ensemble` (the learned model, when loaded,
    rides along as the ensemble's ``model`` member): the runtime runs
    ungated so the statistical members see every window.  ``model`` may
    then be ``None`` — a day-0 deployment has nothing to load.
    """

    def __init__(self, model: LogSynergy | None, router: AlertRouter | None = None,
                 buffer_capacity: int = 50_000,
                 registry: MetricsRegistry | None = None,
                 ensemble=None):
        if ensemble is None and (model is None or model.model is None):
            raise ValueError("OnlineService requires a fitted LogSynergy model "
                             "(or an ensemble)")
        self.model = model
        self.ensemble = ensemble
        self.router = router or AlertRouter()
        options = dict(queue_capacity=buffer_capacity, backpressure="reject",
                       registry=registry, prefix="service")
        if ensemble is not None:
            self.runtime = InferenceRuntime.from_ensemble(ensemble, **options)
        else:
            self.runtime = InferenceRuntime.from_model(model, **options)
        self.registry = self.runtime.registry
        self.stats = self.runtime.stats
        self.library = _LibraryView(self.runtime)

    def process(self, records: list[LogRecord]) -> list[AnomalyReport]:
        """Run a batch of raw records through the full pipeline.

        Records beyond the buffer's free capacity are shed and counted.
        Anomalous reports are routed and returned in emission order.
        """
        for record in records:
            self.runtime.submit(record)
        reports = [report for report in self.runtime.drain()
                   if report.is_anomalous]
        for report in reports:
            self.router.route(report)
        return reports

"""End-to-end LogSynergy facade.

``LogSynergy.fit`` takes labeled sequences from several source systems
plus a small labeled slice of the target system, runs the full offline
pipeline (Drain parsing -> LEI -> event embedding -> SUFE/DAAN training),
and produces a detector for the target system.  ``predict`` /
``predict_proba`` are batch-first: they accept a single
:class:`~repro.logs.sequences.LogSequence` or a list of them.
``detect_stream`` / ``detect_stream_batch`` run the §III-E online path
over raw message windows and emit :class:`~repro.core.report.AnomalyReport`s.

The offline pipeline reports one span per stage (``fit.parse``,
``fit.interpret``, ``fit.embed``, ``fit.train``) through ``repro.obs``
when an observability registry is installed.
"""

from __future__ import annotations

from datetime import datetime
from typing import Sequence

import numpy as np

from ..config import LogSynergyConfig
from ..embedding.pretrained import load_pretrained_encoder
from ..embedding.encoder import SentenceEncoder
from ..llm.factory import default_provider
from ..llm.providers import LLMProvider
from ..logs.sequences import LogSequence
from ..obs import trace
from .features import SystemFeaturizer
from .model import LogSynergyModel
from .report import AnomalyReport, build_report
from .trainer import LogSynergyTrainer, TrainingBatch, TrainingHistory

__all__ = ["LogSynergy"]


class LogSynergy:
    """The paper's full method behind a scikit-learn-ish interface.

    Parameters
    ----------
    config:
        Model/training hyperparameters (defaults to the reduced CPU
        scale).  The Fig 5 ablation switches live here:
        ``config.use_lei`` / ``config.use_sufe`` / ``config.use_da``.
    llm:
        LLM provider for LEI.  Defaults to :func:`default_provider`; ignored
        when ``config.use_lei`` is false.
    encoder:
        Sentence encoder; defaults to the cached pre-trained domain encoder
        with ``config.embedding_dim`` dimensions.
    """

    def __init__(self, config: LogSynergyConfig | None = None,
                 llm: LLMProvider | None = None,
                 encoder: SentenceEncoder | None = None):
        self.config = config or LogSynergyConfig()
        self.encoder = encoder or load_pretrained_encoder(self.config.embedding_dim)
        if self.encoder.dim != self.config.embedding_dim:
            raise ValueError(
                f"encoder dim {self.encoder.dim} != config.embedding_dim "
                f"{self.config.embedding_dim}"
            )
        if not self.config.use_lei:
            self.llm = None
        elif llm is not None:
            # `is not None`, not truthiness: an empty CachedLLM has len() 0.
            self.llm = llm
        else:
            self.llm = default_provider(seed=self.config.seed)
        self._featurizers: dict[str, SystemFeaturizer] = {}
        self._system_index: dict[str, int] = {}
        self.target_system: str | None = None
        self.model: LogSynergyModel | None = None
        self.trainer: LogSynergyTrainer | None = None
        self.history: TrainingHistory | None = None

    # -- ablation switches (read-only views of the config) --------------
    @property
    def use_lei(self) -> bool:
        return self.config.use_lei

    @property
    def use_sufe(self) -> bool:
        return self.config.use_sufe

    @property
    def use_da(self) -> bool:
        return self.config.use_da

    # ------------------------------------------------------------------
    def _featurizer(self, system: str) -> SystemFeaturizer:
        featurizer = self._featurizers.get(system)
        if featurizer is None:
            featurizer = SystemFeaturizer(system, self.encoder, llm=self.llm)
            self._featurizers[system] = featurizer
        return featurizer

    def _assemble(self, sources: dict[str, list[LogSequence]],
                  target_system: str, target_sequences: list[LogSequence]) -> TrainingBatch:
        systems = list(sources) + [target_system]
        self._system_index = {name: i for i, name in enumerate(systems)}

        # Stage 1 — Drain parsing, all systems (streamed in sequence order).
        grids: dict[str, list[list[int]]] = {}
        with trace("fit.parse", systems=len(systems)):
            for name, sequences in sources.items():
                if not sequences:
                    raise ValueError(f"source system {name!r} contributed no sequences")
                grids[name] = self._featurizer(name).parse_sequences(sequences)
            if not target_sequences:
                raise ValueError("target system contributed no sequences")
            grids[target_system] = self._featurizer(target_system).parse_sequences(
                target_sequences
            )

        # Stage 2 — LEI interpretation (one LLM call per distinct event).
        with trace("fit.interpret") as span:
            interpreted = sum(
                self._featurizer(name).interpret_events() for name in systems
            )
            span.set("events", interpreted)

        # Stage 3 — event embedding and batch assembly.
        with trace("fit.embed") as span:
            embedded_events = sum(
                self._featurizer(name).embed_events() for name in systems
            )
            span.set("events", embedded_events)

            blocks, anomaly, system_ids, domain = [], [], [], []
            for name, sequences in sources.items():
                embedded = self._featurizer(name).gather(grids[name])
                blocks.append(embedded)
                anomaly.append(np.array([s.label for s in sequences], dtype=np.int64))
                system_ids.append(
                    np.full(len(sequences), self._system_index[name], dtype=np.int64)
                )
                domain.append(np.zeros(len(sequences), dtype=np.int64))

            target_embedded = self._featurizer(target_system).gather(grids[target_system])
            # Oversample the target so DAAN sees both domains in every batch;
            # the paper trains on n_s >> n_t and this is the standard remedy.
            mean_source = int(np.mean([len(b) for b in blocks]))
            repeats = max(1, mean_source // max(1, len(target_sequences)))
            target_labels = np.array([s.label for s in target_sequences], dtype=np.int64)
            blocks.append(np.repeat(target_embedded, repeats, axis=0))
            anomaly.append(np.repeat(target_labels, repeats))
            n_target = len(target_sequences) * repeats
            system_ids.append(
                np.full(n_target, self._system_index[target_system], dtype=np.int64)
            )
            domain.append(np.ones(n_target, dtype=np.int64))

        return TrainingBatch(
            sequences=np.concatenate(blocks, axis=0),
            anomaly_labels=np.concatenate(anomaly),
            system_labels=np.concatenate(system_ids),
            domain_labels=np.concatenate(domain),
        )

    # ------------------------------------------------------------------
    def fit(self, sources: dict[str, list[LogSequence]], target_system: str,
            target_sequences: list[LogSequence], epochs: int | None = None,
            verbose: bool = False, controller=None, store=None,
            resume: bool = False) -> "LogSynergy":
        """Run the offline phase: featurize all systems and train the model.

        ``controller`` is an optional
        :class:`~repro.core.controller.TrainingController` threaded into
        the trainer's fit loop.  With ``store`` (a
        :class:`~repro.core.checkpoint.CheckpointStore`) and
        ``resume=True``, the trainer restores the newest verifiable
        checkpoint before training and only runs the remaining epochs;
        featurization is deterministic, so the rebuilt batch matches the
        one the interrupted run saw.
        """
        if target_system in sources:
            raise ValueError(f"{target_system!r} appears in both sources and target")
        self.target_system = target_system
        total_epochs = epochs if epochs is not None else self.config.epochs
        with trace("fit", target=target_system, sources=len(sources)):
            data = self._assemble(sources, target_system, target_sequences)
            with trace("fit.train", samples=len(data.anomaly_labels)):
                self.model = LogSynergyModel(
                    self.config, num_systems=len(sources) + 1,
                    rng=np.random.default_rng(self.config.seed),
                )
                self.trainer = LogSynergyTrainer(self.model, self.config)
                if store is not None and resume:
                    self.trainer.resume_from(store)
                remaining = max(0, total_epochs - self.trainer.completed_epochs)
                self.history = self.trainer.fit(
                    data, epochs=remaining, verbose=verbose,
                    controller=controller,
                )
        return self

    def _require_fitted(self) -> LogSynergyModel:
        if self.model is None or self.target_system is None:
            raise RuntimeError("LogSynergy.fit must be called before prediction")
        return self.model

    def predict_proba(
        self, sequences: LogSequence | Sequence[LogSequence]
    ) -> float | np.ndarray:
        """Anomaly probabilities for target-system sequences.

        Batch-first: a list of sequences returns a float ``np.ndarray``
        of shape ``(len(sequences),)``; a single :class:`LogSequence`
        returns a plain ``float``.
        """
        model = self._require_fitted()
        single = isinstance(sequences, LogSequence)
        batch = [sequences] if single else list(sequences)
        if not batch:
            return np.zeros(0, dtype=np.float32)
        embedded = self._featurizer(self.target_system).embed_sequences(batch)
        probabilities = model.predict_proba(embedded)
        return float(probabilities[0]) if single else probabilities

    def predict(
        self, sequences: LogSequence | Sequence[LogSequence]
    ) -> int | np.ndarray:
        """Binary anomaly predictions at the configured threshold.

        Batch-first like :meth:`predict_proba`: returns an ``int64``
        array for a list input, a plain ``int`` for a single sequence.
        """
        probabilities = self.predict_proba(sequences)
        if isinstance(probabilities, float):
            return int(probabilities > self.config.threshold)
        return (probabilities > self.config.threshold).astype(np.int64)

    # ------------------------------------------------------------------
    # Pipeline persistence: weights + Drain trees + interpretations +
    # event embeddings, so a restarted service keeps stable event ids and
    # needs no LLM re-interpretation.
    # ------------------------------------------------------------------
    def save_pipeline(self, directory: str) -> None:
        """Persist the fitted pipeline to ``directory``."""
        import dataclasses
        import json
        from pathlib import Path

        model = self._require_fitted()
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        model.save(str(root / "model.npz"))

        featurizer_meta = {}
        for name, featurizer in self._featurizers.items():
            meta, arrays = featurizer.state()
            featurizer_meta[name] = meta
            if arrays:
                np.savez(root / f"embeddings_{name}.npz", **arrays)

        manifest = {
            "config": dataclasses.asdict(self.config),
            "target_system": self.target_system,
            "system_index": self._system_index,
            "num_systems": model.num_systems,
            # Redundant with config.*, kept so older readers still work.
            "use_lei": self.use_lei,
            "use_sufe": self.use_sufe,
            "use_da": self.use_da,
            "featurizers": featurizer_meta,
        }
        (root / "pipeline.json").write_text(json.dumps(manifest), encoding="utf-8")

    @classmethod
    def load_pipeline(cls, directory: str, llm: LLMProvider | None = None,
                      encoder: SentenceEncoder | None = None) -> "LogSynergy":
        """Restore a pipeline saved with :meth:`save_pipeline`.

        ``llm``/``encoder`` default to the same choices the constructor
        makes; pass the production client to keep interpreting new events
        online.
        """
        import json
        from pathlib import Path

        from ..config import LogSynergyConfig
        from .features import SystemFeaturizer
        from .model import LogSynergyModel

        root = Path(directory)
        manifest = json.loads((root / "pipeline.json").read_text(encoding="utf-8"))
        config = LogSynergyConfig(**manifest["config"])
        # Manifests written before the switches moved into the config carry
        # them only at the top level; fold those in.
        config = config.with_overrides(
            use_lei=manifest.get("use_lei", config.use_lei),
            use_sufe=manifest.get("use_sufe", config.use_sufe),
            use_da=manifest.get("use_da", config.use_da),
        )
        pipeline = cls(config, llm=llm, encoder=encoder)
        pipeline.target_system = manifest["target_system"]
        pipeline._system_index = dict(manifest["system_index"])
        pipeline.model = LogSynergyModel(
            config, num_systems=manifest["num_systems"],
            rng=np.random.default_rng(config.seed),
        )
        pipeline.model.load(str(root / "model.npz"))
        for name, meta in manifest["featurizers"].items():
            arrays: dict[str, np.ndarray] = {}
            npz_path = root / f"embeddings_{name}.npz"
            if npz_path.exists():
                with np.load(npz_path) as archive:
                    arrays = {k: archive[k] for k in archive.files}
            pipeline._featurizers[name] = SystemFeaturizer.from_state(
                meta, arrays, pipeline.encoder, pipeline.llm
            )
        return pipeline

    # ------------------------------------------------------------------
    def detect_stream(self, messages: list[str],
                      timestamps: list[datetime] | None = None) -> AnomalyReport:
        """Online path (§III-E): score one raw message window, build a report."""
        return self.detect_stream_batch(
            [messages], [timestamps] if timestamps is not None else None
        )[0]

    def detect_stream_batch(
        self, windows: list[list[str]],
        timestamps: list[list[datetime] | None] | None = None,
    ) -> list[AnomalyReport]:
        """Batch variant of :meth:`detect_stream`: one model call per
        window-length group instead of one per window.

        ``timestamps``, when given, must be parallel to ``windows``.
        Returns one report per window, in input order.
        """
        model = self._require_fitted()
        if timestamps is not None and len(timestamps) != len(windows):
            raise ValueError(
                f"timestamps batch has {len(timestamps)} entries for "
                f"{len(windows)} windows"
            )
        if not windows:
            return []
        featurizer = self._featurizer(self.target_system)
        with trace("detect.batch", windows=len(windows)):
            embedded = [featurizer.embed_messages(w) for w in windows]
            scores = np.zeros(len(windows), dtype=np.float64)
            by_length: dict[int, list[int]] = {}
            for index, window in enumerate(embedded):
                by_length.setdefault(window.shape[0], []).append(index)
            for indices in by_length.values():
                batch = np.stack([embedded[i] for i in indices])
                probabilities = model.predict_proba(batch)
                for i, probability in zip(indices, probabilities):
                    scores[i] = float(probability)

            reports: list[AnomalyReport] = []
            for index, messages in enumerate(windows):
                interpretations = [
                    featurizer.interpretation_of(featurizer.event_id_of(m))
                    if self.use_lei else featurizer.store.ingest(m).template_text
                    for m in messages
                ]
                reports.append(build_report(
                    system=self.target_system,
                    score=float(scores[index]),
                    threshold=self.config.threshold,
                    messages=messages,
                    interpretations=interpretations,
                    timestamps=timestamps[index] if timestamps is not None else None,
                ))
        return reports

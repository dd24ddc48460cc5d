"""The LogSynergy network (§III-D1).

``F`` (a Transformer encoder over event-embedding sequences) produces a
pooled feature vector that SUFE splits into system-unified features
``F_u(x)`` and system-specific features ``F_s(x)`` of equal dimension.
``C_anomaly`` predicts the anomaly label from ``F_u``; ``C_system``
predicts which system produced the sequence from ``F_s``.  The CLUB and
DAAN modules attach during training only; online detection uses just
``F`` and ``C_anomaly`` (§III-E).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..config import LogSynergyConfig
from ..nn.tensor import Tensor

__all__ = ["LogSynergyModel"]


class LogSynergyModel(nn.Module):
    """Feature extractor + SUFE split + anomaly/system classifiers."""

    def __init__(self, config: LogSynergyConfig, num_systems: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_systems < 2:
            raise ValueError("LogSynergy needs at least 2 systems (source + target)")
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.num_systems = num_systems

        self.input_projection = nn.Linear(config.embedding_dim, config.d_model, rng=rng)
        self.encoder = nn.TransformerEncoder(
            d_model=config.d_model,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            d_ff=config.d_ff,
            dropout=config.dropout,
            max_len=max(64, config.window),
            rng=rng,
        )
        # Pooled encoder output -> disentangled feature pair (Fig 3).
        self.feature_head = nn.Linear(config.d_model, 2 * config.feature_dim, rng=rng)
        self.anomaly_classifier = nn.Sequential(
            nn.Linear(config.feature_dim, config.feature_dim, rng=rng),
            nn.ReLU(),
            nn.Linear(config.feature_dim, 1, rng=rng),
        )
        self.system_classifier = nn.Sequential(
            nn.Linear(config.feature_dim, config.feature_dim, rng=rng),
            nn.ReLU(),
            nn.Linear(config.feature_dim, num_systems, rng=rng),
        )

    # ------------------------------------------------------------------
    def extract_features(self, sequences: np.ndarray) -> tuple[Tensor, Tensor]:
        """Return ``(F_u(x), F_s(x))`` for a batch.

        ``sequences`` has shape ``(batch, window, embedding_dim)``.
        """
        x = Tensor(np.ascontiguousarray(sequences, dtype=np.float32))
        projected = self.input_projection(x)
        pooled = self.encoder.pooled(projected)
        combined = self.feature_head(pooled)
        dim = self.config.feature_dim
        return combined[:, :dim], combined[:, dim:]

    def anomaly_logits(self, unified: Tensor) -> Tensor:
        return self.anomaly_classifier(unified).reshape(-1)

    def system_logits(self, specific: Tensor) -> Tensor:
        return self.system_classifier(specific)

    def forward(self, sequences: np.ndarray) -> Tensor:
        """Anomaly probabilities for a batch (online-detection path)."""
        unified, _ = self.extract_features(sequences)
        return self.anomaly_logits(unified).sigmoid()

    def predict(self, sequences: np.ndarray, threshold: float | None = None,
                batch_size: int = 256) -> np.ndarray:
        """Binary predictions without building the autograd graph."""
        threshold = self.config.threshold if threshold is None else threshold
        return (self.predict_proba(sequences, batch_size=batch_size) > threshold).astype(np.int64)

    def predict_proba(self, sequences: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Anomaly probabilities, batched, in eval mode with grads disabled.

        A model already in eval mode (the served one) skips the two
        mode walks over its module tree; a training model is switched
        to eval for the call and back afterwards.
        """
        was_training = self.training
        if was_training:
            self.eval()
        probabilities = []
        try:
            with nn.no_grad():
                for start in range(0, len(sequences), batch_size):
                    batch = sequences[start : start + batch_size]
                    probabilities.append(self.forward(batch).data)
        finally:
            if was_training:
                self.train()
        if not probabilities:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(probabilities)

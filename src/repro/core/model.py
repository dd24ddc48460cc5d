"""The LogSynergy network (§III-D1).

``F`` (a Transformer encoder over event-embedding sequences) produces a
pooled feature vector that SUFE splits into system-unified features
``F_u(x)`` and system-specific features ``F_s(x)`` of equal dimension.
``C_anomaly`` predicts the anomaly label from ``F_u``; ``C_system``
predicts which system produced the sequence from ``F_s``.  The CLUB and
DAAN modules attach during training only; online detection uses just
``F`` and ``C_anomaly`` (§III-E).

Training runs the module tree over autograd :class:`~repro.nn.Tensor`
objects.  Scoring does not: :meth:`LogSynergyModel.predict_proba` runs an
inference plan, a straight-line numpy forward over the live parameter
arrays that calls the same array-level kernels as the autograd nodes
(:mod:`repro.nn.kernels`), so its probabilities are bit-identical to the
eval-mode module forward at a fraction of the per-call overhead.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..config import LogSynergyConfig
from ..nn.kernels import (
    attention_weights,
    gelu_forward,
    layer_norm_forward,
    linear_forward,
)
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
        """Anomaly probabilities, batched, through the inference plan.

        The plan (:meth:`_infer`) builds no graph and never applies
        dropout, so it neither reads nor changes the training flag.  With
        ``nn.use_fused_kernels(False)`` the call runs the seed composition
        instead: the module forward in eval mode with grads disabled.
        """
        if nn.fused_kernels_enabled():
            forward = self._infer
        else:
            forward = self._module_forward
        probabilities = [forward(sequences[start : start + batch_size])
                         for start in range(0, len(sequences), batch_size)]
        if not probabilities:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(probabilities)

    def _module_forward(self, batch: np.ndarray) -> np.ndarray:
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with nn.no_grad():
                return self.forward(batch).data
        finally:
            if was_training:
                self.train()

    def _infer(self, batch: np.ndarray) -> np.ndarray:
        """The eval-mode forward on plain arrays, step for step.

        Reads every parameter's ``.data`` at call time, so a
        ``load_state_dict`` takes effect on the next call.  Each step
        keeps the autograd path's dtypes and shapes: attention in float32
        (the ``np.float32`` scale), the mean as ``sum * float32(1/n)``,
        ReLU as ``np.where(x > 0, x, 0.0)``, and the heads as 2-D matmuls.
        """
        x = _dense(self.input_projection, np.ascontiguousarray(batch, dtype=np.float32))
        encoder = self.encoder
        seq = x.shape[1]
        x = x + encoder.positional.table(seq)
        for layer in encoder.layers:
            x = x + _attend(layer.attention, _norm(layer.norm1, x))
            hidden = gelu_forward(_dense(layer.ff1, _norm(layer.norm2, x)))[0]
            x = x + _dense(layer.ff2, hidden)
        pooled = _norm(encoder.final_norm, x).sum(axis=1) * np.float32(1.0 / seq)
        unified = _dense(self.feature_head, pooled)[:, : self.config.feature_dim]
        first, _, last = self.anomaly_classifier
        hidden = _dense(first, unified)
        logits = _dense(last, np.where(hidden > 0, hidden, 0.0)).reshape(-1)
        return 1.0 / (1.0 + np.exp(-logits))


def _dense(layer: nn.Linear, x: np.ndarray) -> np.ndarray:
    return linear_forward(x, layer.weight.data,
                          None if layer.bias is None else layer.bias.data)


def _norm(layer: nn.LayerNorm, x: np.ndarray) -> np.ndarray:
    return layer_norm_forward(x, layer.gamma.data, layer.beta.data, layer.eps)[0]


def _attend(attention: nn.MultiHeadAttention, x: np.ndarray) -> np.ndarray:
    batch, seq, d_model = x.shape
    heads, d_head = attention.num_heads, attention.d_head

    def split(layer):
        return _dense(layer, x).reshape(batch, seq, heads, d_head).transpose((0, 2, 1, 3))

    q, k, v = split(attention.w_query), split(attention.w_key), split(attention.w_value)
    weights = attention_weights(q, k, np.float32(1.0 / np.sqrt(d_head)))
    context = weights @ v
    merged = context.transpose((0, 2, 1, 3)).reshape(batch, seq, d_model)
    return _dense(attention.w_out, merged)

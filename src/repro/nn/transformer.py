"""Transformer encoder stack used by LogSynergy's feature extractor and NeuralLog."""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention
from .layers import Dropout, GELU, LayerNorm, Linear
from .module import Module, ModuleList
from .tensor import Tensor

__all__ = ["PositionalEncoding", "TransformerEncoderLayer", "TransformerEncoder"]


class PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding added to input embeddings."""

    def __init__(self, d_model: int, max_len: int = 512):
        super().__init__()
        position = np.arange(max_len)[:, None].astype(np.float32)
        div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model)).astype(np.float32)
        table = np.zeros((max_len, d_model), dtype=np.float32)
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div[: d_model // 2])
        self._table = table
        self.max_len = max_len

    def table(self, seq: int) -> np.ndarray:
        """The ``(1, seq, d_model)`` slice added to a length-``seq`` input."""
        if seq > self.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len {self.max_len}")
        return self._table[None, :seq, :]

    def forward(self, x: Tensor) -> Tensor:
        """Run the module's forward computation."""
        return x + Tensor(self.table(x.shape[1]))


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (attention + position-wise FFN)."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attention = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rng=rng)
        self.ff2 = Linear(d_ff, d_model, rng=rng)
        self.activation = GELU()
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Run the module's forward computation."""
        attended = self.attention(self.norm1(x), mask=mask)
        x = x + self.dropout(attended)
        transformed = self.ff2(self.dropout(self.activation(self.ff1(self.norm2(x)))))
        return x + self.dropout(transformed)


class TransformerEncoder(Module):
    """Stack of encoder layers with positional encoding and final norm.

    The paper's LogSynergy uses a six-layer encoder with 12 heads and a
    2048-wide FFN; this implementation accepts those hyperparameters but
    the reproduction defaults to a reduced scale for CPU training.
    """

    def __init__(self, d_model: int, num_heads: int, num_layers: int, d_ff: int,
                 dropout: float = 0.1, max_len: int = 512,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.positional = PositionalEncoding(d_model, max_len=max_len)
        self.layers = ModuleList(
            TransformerEncoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng)
            for _ in range(num_layers)
        )
        self.final_norm = LayerNorm(d_model)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Run the module's forward computation."""
        x = self.positional(x)
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)

    def pooled(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Encode and mean-pool over valid sequence positions."""
        encoded = self.forward(x, mask=mask)
        if mask is None:
            return encoded.mean(axis=1)
        mask_arr = np.asarray(mask, dtype=np.float32)
        weights = Tensor((mask_arr / np.maximum(mask_arr.sum(axis=1, keepdims=True), 1.0))[..., None])
        return (encoded * weights).sum(axis=1)

"""Multi-head scaled dot-product attention (Vaswani et al., 2017)."""

from __future__ import annotations

import numpy as np

from . import kernels
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention"]

_NEG_INF = -1e9


class MultiHeadAttention(Module):
    """Self/cross attention with ``num_heads`` parallel heads.

    Input and output shapes are ``(batch, seq, d_model)``.  An optional
    boolean ``mask`` of shape ``(batch, seq)`` marks *valid* positions;
    attention weights to invalid positions are zeroed.
    """

    def __init__(self, d_model: int, num_heads: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} must be divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.w_query = Linear(d_model, d_model, rng=rng)
        self.w_key = Linear(d_model, d_model, rng=rng)
        self.w_value = Linear(d_model, d_model, rng=rng)
        self.w_out = Linear(d_model, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (batch, seq, d_model) -> (batch, heads, seq, d_head)
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose((0, 2, 1, 3))

    def forward(self, query: Tensor, key: Tensor | None = None, value: Tensor | None = None,
                mask: np.ndarray | None = None) -> Tensor:
        """Run the module's forward computation."""
        key = key if key is not None else query
        value = value if value is not None else query
        batch, seq_q, _ = query.shape
        seq_k = key.shape[1]

        q = self._split_heads(self.w_query(query), batch, seq_q)
        k = self._split_heads(self.w_key(key), batch, seq_k)
        v = self._split_heads(self.w_value(value), batch, seq_k)

        scale = np.float32(1.0 / np.sqrt(self.d_head))
        additive = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            # (batch, seq_k) -> broadcast over heads and query positions.
            additive = np.where(mask[:, None, None, :], 0.0, _NEG_INF).astype(np.float32)

        if kernels.fused_kernels_enabled():
            dropout_p = self.dropout.p if self.dropout.training else 0.0
            context = kernels.attention(
                q, k, v, scale, additive_mask=additive,
                dropout_p=dropout_p, dropout_rng=self.dropout.rng,
            )
        else:
            scores = q.matmul(k.transpose((0, 1, 3, 2))) * scale
            if additive is not None:
                scores = scores + Tensor(additive)
            weights = scores.softmax(axis=-1)
            weights = self.dropout(weights)
            context = weights.matmul(v)  # (batch, heads, seq_q, d_head)
        merged = context.transpose((0, 2, 1, 3)).reshape(batch, seq_q, self.d_model)
        return self.w_out(merged)

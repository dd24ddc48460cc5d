"""Fused training kernels for the hot ops identified by :mod:`repro.nn.profiler`.

The generic autograd engine in :mod:`repro.nn.tensor` builds one graph node
per primitive, which makes BPTT over a ``(batch, seq, features)`` input cost
a Python-level node per timestep per gate.  The kernels here collapse each
hot composite into a single custom autograd node with a hand-written
backward:

* :func:`lstm_layer` / :func:`gru_layer` — fused BPTT recurrence: the input
  projection for *all* timesteps is one matmul, the recurrence runs over
  preallocated numpy buffers, and one node replays the whole sequence in
  reverse during backward.
* :func:`attention` — scaled-dot-product attention with the softmax (and
  inverted dropout) folded into one forward/backward pair.
* :func:`linear` / :func:`layer_norm` / :func:`gelu` / :func:`dropout` —
  the per-call workhorses of the transformer encoder (and CLUB/DAAN
  heads): each as one node instead of a matmul/transpose/add or
  mean/var/sub/div/mul/add chain.
* :func:`bce_with_logits` / :func:`cross_entropy` — single-node losses with
  closed-form logit gradients.

The forward arithmetic of :func:`linear`, :func:`layer_norm`, :func:`gelu`
and :func:`attention` lives in array-level helpers (:func:`linear_forward`,
:func:`layer_norm_forward`, :func:`gelu_forward`, :func:`attention_weights`).
The autograd nodes call them, and so does the tape-free inference plan of
:meth:`repro.core.model.LogSynergyModel.predict_proba`, so both run one copy
of the math and score bit-identically.  Their last-axis reductions avoid
numpy's slow short-axis ``max``/``mean`` wrappers with rewrites that are
exact to the bit (see :func:`_last_axis_max` and
:func:`layer_norm_forward`).

Each kernel dispatches on the module-level fused switch so callers (the
``LSTM``/``GRU``/``BiLSTM``/``MultiHeadAttention`` modules and
:mod:`repro.nn.loss`) keep their public APIs: ``use_fused_kernels(False)``
restores the seed composition — the comparison baseline for
``benchmarks/bench_train_throughput.py`` and the parity tests.

This module is the one sanctioned home for per-timestep Python loops over a
tensor time axis (see the ``per-timestep-loop`` lint rule in
:mod:`repro.analysis.rules`); everywhere else the loop is the bug.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .profiler import profiled_op
from .tensor import Tensor, is_grad_enabled, stack

__all__ = [
    "fused_kernels_enabled",
    "set_fused_kernels",
    "use_fused_kernels",
    "lstm_layer",
    "gru_layer",
    "attention",
    "linear",
    "layer_norm",
    "gelu",
    "dropout",
    "linear_forward",
    "layer_norm_forward",
    "gelu_forward",
    "attention_weights",
    "gaussian_log_likelihood",
    "bce_with_logits",
    "cross_entropy",
]

_FUSED = True


def fused_kernels_enabled() -> bool:
    """Whether the fused kernel paths are active."""
    return _FUSED


def set_fused_kernels(enabled: bool) -> bool:
    """Toggle the fused kernels globally; returns the previous setting."""
    global _FUSED
    previous = _FUSED
    _FUSED = bool(enabled)
    return previous


@contextlib.contextmanager
def use_fused_kernels(enabled: bool = True):
    """Scope the fused-kernel switch (used by benchmarks and parity tests)."""
    previous = set_fused_kernels(enabled)
    try:
        yield
    finally:
        set_fused_kernels(previous)


def _needs_grad(*tensors: Tensor) -> bool:
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


def _zero_state(batch: int, hidden: int) -> Tensor:
    return Tensor(np.zeros((batch, hidden), dtype=np.float32))


# ----------------------------------------------------------------------
# Fused LSTM layer
# ----------------------------------------------------------------------
def _reference_lstm_layer(x: Tensor, cell) -> Tensor:
    """Seed composition: per-timestep cell calls through the generic graph."""
    batch, seq, _ = x.shape
    h = _zero_state(batch, cell.hidden_size)
    c = _zero_state(batch, cell.hidden_size)
    outputs = []
    for t in range(seq):
        h, c = cell(x[:, t, :], (h, c))
        outputs.append(h)
    return stack(outputs, axis=1)


def _fused_lstm_layer(x: Tensor, cell) -> Tensor:
    w_input, w_hidden, bias = cell.w_input, cell.w_hidden, cell.bias
    hidden = cell.hidden_size
    data = x.data
    batch, seq, features = data.shape
    needs = _needs_grad(x, w_input, w_hidden, bias)

    # One matmul projects every timestep's input through w_input.
    x2d = np.ascontiguousarray(data.reshape(batch * seq, features))
    px = (x2d @ w_input.data + bias.data).reshape(batch, seq, 4 * hidden)
    w_hidden_data = w_hidden.data

    outputs = np.empty((batch, seq, hidden), dtype=np.float32)
    if needs:
        # Saved for backward: activated gates, cell states, tanh(c).
        gates = np.empty((batch, seq, 4 * hidden), dtype=np.float32)
        cells_buf = np.empty((batch, seq, hidden), dtype=np.float32)
        tanh_c = np.empty((batch, seq, hidden), dtype=np.float32)

    g_lo, g_hi = 2 * hidden, 3 * hidden
    pre = np.empty((batch, 4 * hidden), dtype=np.float32)
    tmp = np.empty((batch, hidden), dtype=np.float32)
    tc = np.empty((batch, hidden), dtype=np.float32)
    h_t = np.zeros((batch, hidden), dtype=np.float32)
    c_t = np.zeros((batch, hidden), dtype=np.float32)
    for t in range(seq):
        np.matmul(h_t, w_hidden_data, out=pre)
        pre += px[:, t]
        g_cand = np.tanh(pre[:, g_lo:g_hi])
        # One in-place sigmoid pass over the whole preactivation row covers
        # the i/f/o gates at once; the g slice is recomputed and discarded.
        np.negative(pre, out=pre)
        np.exp(pre, out=pre)
        pre += 1.0
        np.reciprocal(pre, out=pre)
        i_gate = pre[:, :hidden]
        f_gate = pre[:, hidden:g_lo]
        o_gate = pre[:, g_hi:]
        c_t *= f_gate
        np.multiply(i_gate, g_cand, out=tmp)
        c_t += tmp
        np.tanh(c_t, out=tc)
        np.multiply(o_gate, tc, out=h_t)
        outputs[:, t] = h_t
        if needs:
            gate_row = gates[:, t]
            gate_row[:] = pre
            gate_row[:, g_lo:g_hi] = g_cand
            cells_buf[:, t] = c_t
            tanh_c[:, t] = tc

    parents = (x, w_input, w_hidden, bias) if needs else ()
    out = Tensor(outputs, requires_grad=needs, _parents=parents, _op="lstm_layer")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        # Activation derivatives for every timestep in one vectorized pass:
        # s - s^2 for the sigmoid gates, 1 - g^2 for the candidate, and
        # 1 - tanh(c)^2 for the cell nonlinearity.
        deriv = gates - gates * gates
        g_act = gates[:, :, g_lo:g_hi]
        deriv[:, :, g_lo:g_hi] = 1.0 - g_act * g_act
        dtanh_c = 1.0 - tanh_c * tanh_c

        dgates = np.empty((batch, seq, 4 * hidden), dtype=np.float32)
        dh = np.empty((batch, hidden), dtype=np.float32)
        dc = np.empty((batch, hidden), dtype=np.float32)
        dh_next = np.zeros((batch, hidden), dtype=np.float32)
        dc_next = np.zeros((batch, hidden), dtype=np.float32)
        w_hidden_t = w_hidden.data.T
        for t in range(seq - 1, -1, -1):
            gate_row = gates[:, t]
            i_gate = gate_row[:, :hidden]
            f_gate = gate_row[:, hidden:g_lo]
            g_cand = gate_row[:, g_lo:g_hi]
            np.add(grad[:, t], dh_next, out=dh)
            np.multiply(dh, gate_row[:, g_hi:], out=dc)
            dc *= dtanh_c[:, t]
            dc += dc_next
            c_prev = cells_buf[:, t - 1] if t > 0 else 0.0
            slot = dgates[:, t]
            np.multiply(dc, g_cand, out=slot[:, :hidden])
            np.multiply(dc, c_prev, out=slot[:, hidden:g_lo])
            np.multiply(dc, i_gate, out=slot[:, g_lo:g_hi])
            np.multiply(dh, tanh_c[:, t], out=slot[:, g_hi:])
            slot *= deriv[:, t]
            np.matmul(slot, w_hidden_t, out=dh_next)
            np.multiply(dc, f_gate, out=dc_next)
        flat = dgates.reshape(batch * seq, 4 * hidden)
        if x.requires_grad:
            x._accumulate((flat @ w_input.data.T).reshape(batch, seq, features))
        if w_input.requires_grad:
            w_input._accumulate(x2d.T @ flat)
        if w_hidden.requires_grad:
            h_prev = np.concatenate(
                [np.zeros((batch, 1, hidden), dtype=np.float32), outputs[:, :-1]], axis=1
            )
            w_hidden._accumulate(h_prev.reshape(batch * seq, hidden).T @ flat)
        if bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))

    out._backward = _backward
    return out


@profiled_op
def lstm_layer(x: Tensor, cell) -> Tensor:
    """One LSTM layer over ``(batch, seq, features)`` -> ``(batch, seq, hidden)``.

    ``cell`` is an :class:`~repro.nn.recurrent.LSTMCell`; fused and seed
    paths share its parameters, so state dicts and audits are unchanged.
    """
    if _FUSED:
        return _fused_lstm_layer(x, cell)
    return _reference_lstm_layer(x, cell)


# ----------------------------------------------------------------------
# Fused GRU layer
# ----------------------------------------------------------------------
def _reference_gru_layer(x: Tensor, cell) -> Tensor:
    batch, seq, _ = x.shape
    h = _zero_state(batch, cell.hidden_size)
    outputs = []
    for t in range(seq):
        h = cell(x[:, t, :], h)
        outputs.append(h)
    return stack(outputs, axis=1)


def _fused_gru_layer(x: Tensor, cell) -> Tensor:
    w_input, w_hidden, bias = cell.w_input, cell.w_hidden, cell.bias
    hidden = cell.hidden_size
    data = x.data
    batch, seq, features = data.shape
    needs = _needs_grad(x, w_input, w_hidden, bias)

    x2d = np.ascontiguousarray(data.reshape(batch * seq, features))
    px = (x2d @ w_input.data + bias.data).reshape(batch, seq, 3 * hidden)
    w_hidden_data = w_hidden.data

    outputs = np.empty((batch, seq, hidden), dtype=np.float32)
    if needs:
        # r, z, n activations plus the hidden projection of the candidate.
        gates = np.empty((batch, seq, 3 * hidden), dtype=np.float32)
        ph_cand = np.empty((batch, seq, hidden), dtype=np.float32)

    h_t = np.zeros((batch, hidden), dtype=np.float32)
    for t in range(seq):
        ph = h_t @ w_hidden_data
        px_t = px[:, t]
        r_gate = 1.0 / (1.0 + np.exp(-(px_t[:, :hidden] + ph[:, :hidden])))
        z_gate = 1.0 / (1.0 + np.exp(-(px_t[:, hidden : 2 * hidden] + ph[:, hidden : 2 * hidden])))
        candidate = np.tanh(px_t[:, 2 * hidden :] + r_gate * ph[:, 2 * hidden :])
        h_t = (1.0 - z_gate) * candidate + z_gate * h_t
        outputs[:, t] = h_t
        if needs:
            gate_row = gates[:, t]
            gate_row[:, :hidden] = r_gate
            gate_row[:, hidden : 2 * hidden] = z_gate
            gate_row[:, 2 * hidden :] = candidate
            ph_cand[:, t] = ph[:, 2 * hidden :]

    parents = (x, w_input, w_hidden, bias) if needs else ()
    out = Tensor(outputs, requires_grad=needs, _parents=parents, _op="gru_layer")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        dpx = np.empty((batch, seq, 3 * hidden), dtype=np.float32)
        dph = np.empty((batch, seq, 3 * hidden), dtype=np.float32)
        dh_next = np.zeros((batch, hidden), dtype=np.float32)
        w_hidden_t = w_hidden.data.T
        for t in range(seq - 1, -1, -1):
            gate_row = gates[:, t]
            r_gate = gate_row[:, :hidden]
            z_gate = gate_row[:, hidden : 2 * hidden]
            candidate = gate_row[:, 2 * hidden :]
            h_prev = outputs[:, t - 1] if t > 0 else 0.0
            dh = grad[:, t] + dh_next
            dz_pre = dh * (h_prev - candidate) * z_gate * (1.0 - z_gate)
            dn_pre = dh * (1.0 - z_gate) * (1.0 - candidate * candidate)
            dr_pre = dn_pre * ph_cand[:, t] * r_gate * (1.0 - r_gate)
            px_slot = dpx[:, t]
            px_slot[:, :hidden] = dr_pre
            px_slot[:, hidden : 2 * hidden] = dz_pre
            px_slot[:, 2 * hidden :] = dn_pre
            ph_slot = dph[:, t]
            ph_slot[:, :hidden] = dr_pre
            ph_slot[:, hidden : 2 * hidden] = dz_pre
            ph_slot[:, 2 * hidden :] = dn_pre * r_gate
            dh_next = dh * z_gate + ph_slot @ w_hidden_t
        flat_px = dpx.reshape(batch * seq, 3 * hidden)
        if x.requires_grad:
            x._accumulate((flat_px @ w_input.data.T).reshape(batch, seq, features))
        if w_input.requires_grad:
            w_input._accumulate(x2d.T @ flat_px)
        if w_hidden.requires_grad:
            h_prev_all = np.concatenate(
                [np.zeros((batch, 1, hidden), dtype=np.float32), outputs[:, :-1]], axis=1
            )
            w_hidden._accumulate(
                h_prev_all.reshape(batch * seq, hidden).T @ dph.reshape(batch * seq, 3 * hidden)
            )
        if bias.requires_grad:
            bias._accumulate(flat_px.sum(axis=0))

    out._backward = _backward
    return out


@profiled_op
def gru_layer(x: Tensor, cell) -> Tensor:
    """One GRU layer over ``(batch, seq, features)`` -> ``(batch, seq, hidden)``."""
    if _FUSED:
        return _fused_gru_layer(x, cell)
    return _reference_gru_layer(x, cell)


# ----------------------------------------------------------------------
# Fused scaled-dot-product attention
# ----------------------------------------------------------------------
def attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                      additive_mask: np.ndarray | None = None) -> np.ndarray:
    """``softmax(q kᵀ · scale + mask)`` on arrays: the forward arithmetic of
    :func:`attention` before dropout.

    ``scale`` is the ``np.float32`` that
    :class:`~repro.nn.attention.MultiHeadAttention` passes, so float32
    ``q``/``k`` keep the scores and the softmax in float32.
    """
    scores = q @ np.swapaxes(k, -1, -2) * scale
    if additive_mask is not None:
        scores = scores + additive_mask
    exp = np.exp(scores - _last_axis_max(scores))
    return exp / np.add.reduce(exp, axis=-1, keepdims=True)


def _last_axis_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` as a chain of ``np.maximum``
    over the last axis's columns.

    numpy's reduction over a short last axis is several times slower
    than a few elementwise passes.  The max is order-free, NaN
    propagates either way, and the chain can differ only in the sign of
    a zero peak, which the softmax's ``x - peak`` then ``exp`` maps to
    1 either way; the softmax is ``np.array_equal`` to the reduction's.
    """
    peak = x[..., 0].copy()
    for column in range(1, x.shape[-1]):
        np.maximum(peak, x[..., column], out=peak)
    return peak[..., None]


@profiled_op
def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              additive_mask: np.ndarray | None = None,
              dropout_p: float = 0.0,
              dropout_rng: np.random.Generator | None = None) -> Tensor:
    """``softmax(q kᵀ · scale + mask) v`` as one autograd node.

    The inverted dropout draw replicates the seed composition (same RNG
    stream as :class:`~repro.nn.layers.Dropout`), so toggling fusion never
    changes which weights are dropped.  With the ``np.float32`` ``scale``
    the attention modules pass, every step runs in float32 like the seed's
    ``Tensor * scale`` composition, and ``MultiHeadAttention`` outputs and
    input gradients are ``np.array_equal`` across the two paths; parameter
    gradients accumulate in another order and agree to about 1e-6.
    ``dropout_p`` of 0 means no dropout (pass 0 in eval mode).
    """
    weights = attention_weights(q.data, k.data, scale, additive_mask)
    if dropout_p > 0.0:
        keep = 1.0 - dropout_p
        drop_mask = (dropout_rng.random(weights.shape) < keep).astype(np.float32) / keep
        dropped = weights * drop_mask
    else:
        drop_mask = None
        dropped = weights
    context = dropped @ v.data

    needs = _needs_grad(q, k, v)
    parents = (q, k, v) if needs else ()
    out = Tensor(context, requires_grad=needs, _parents=parents, _op="attention")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate(np.swapaxes(dropped, -1, -2) @ grad)
        ddropped = grad @ np.swapaxes(v.data, -1, -2)
        dweights = ddropped * drop_mask if drop_mask is not None else ddropped
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        if q.requires_grad:
            q._accumulate((dscores @ k.data) * scale)
        if k.requires_grad:
            k._accumulate((np.swapaxes(dscores, -1, -2) @ q.data) * scale)

    out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Fused feed-forward layers
# ----------------------------------------------------------------------
def linear_forward(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None = None) -> np.ndarray:
    """``x W^T (+ b)`` on arrays: the forward arithmetic of :func:`linear`.

    A 3-D ``x`` stays a batched matmul: reshaping it to 2-D first lets
    BLAS block the sums differently and changes the last bit of some
    outputs (a (9, 17, 64) input against a (32, 64) weight does).
    """
    value = x @ weight.T
    if bias is not None:
        value = value + bias
    return value


@profiled_op
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``y = x W^T (+ b)`` over the last axis as one node; ``weight`` is
    ``(out_features, in_features)`` as in :class:`~repro.nn.layers.Linear`."""
    data = x.data
    value = linear_forward(data, weight.data, None if bias is None else bias.data)

    tensors = (x, weight) if bias is None else (x, weight, bias)
    needs = _needs_grad(*tensors)
    out = Tensor(value, requires_grad=needs, _parents=tensors if needs else (),
                 _op="linear")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data)
        flat = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            weight._accumulate(flat.T @ data.reshape(-1, data.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))

    out._backward = _backward
    return out


_GELU_COEFF = float(np.sqrt(2.0 / np.pi))


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU on arrays: ``(value, tanh(inner))``, the
    forward arithmetic of :func:`gelu` plus the term its backward reuses."""
    inner = (x + x * x * x * 0.044715) * _GELU_COEFF
    t = np.tanh(inner)
    return x * (t + 1.0) * 0.5, t


@profiled_op
def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU as one node (seed: a 9-op mul/add/tanh chain)."""
    data = x.data
    value, t = gelu_forward(data)

    needs = _needs_grad(x)
    out = Tensor(value, requires_grad=needs, _parents=(x,) if needs else (),
                 _op="gelu")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dinner = _GELU_COEFF * (1.0 + 3.0 * 0.044715 * data * data)
            x._accumulate(grad * 0.5 * ((1.0 + t) + data * (1.0 - t * t) * dinner))

    out._backward = _backward
    return out


@profiled_op
def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout as one node; identical RNG draw to the seed
    :class:`~repro.nn.layers.Dropout` so fusion never changes the stream."""
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    value = x.data * mask

    needs = _needs_grad(x)
    out = Tensor(value, requires_grad=needs, _parents=(x,) if needs else (),
                 _op="dropout")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    out._backward = _backward
    return out


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Last-axis layer normalization on arrays: ``(value, normalized,
    inv_std)``, the forward arithmetic of :func:`layer_norm` plus the
    terms its backward reuses.

    The means are ``np.add.reduce(...) / n``: the same sum as
    ``np.mean``, which then divides a float32 sum in float64 and rounds
    back.  Division rounded to float64 and then to float32 equals the
    float32 division (53 >= 2 * 24 + 2 bits), so both are exact to the
    bit, and skipping ``np.mean``'s wrapper saves most of its cost on a
    short last axis.
    """
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / n
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std
    return normalized * gamma + beta, normalized, inv_std


@profiled_op
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Last-axis layer normalization with affine, as one node."""
    value, normalized, inv_std = layer_norm_forward(x.data, gamma.data, beta.data, eps)

    needs = _needs_grad(x, gamma, beta)
    out = Tensor(value, requires_grad=needs,
                 _parents=(x, gamma, beta) if needs else (), _op="layer_norm")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * normalized).reshape(-1, grad.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(grad.reshape(-1, grad.shape[-1]).sum(axis=0))
        if x.requires_grad:
            dnorm = grad * gamma.data
            x._accumulate(inv_std * (
                dnorm - dnorm.mean(axis=-1, keepdims=True)
                - normalized * (dnorm * normalized).mean(axis=-1, keepdims=True)
            ))

    out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Fused losses
# ----------------------------------------------------------------------
@profiled_op
def gaussian_log_likelihood(s: Tensor, mu: Tensor, logvar: Tensor) -> Tensor:
    """Per-sample ``log N(s; mu, e^logvar)`` summed over the last axis
    (up to the constant term) — the CLUB estimator's inner chain."""
    d = s.data - mu.data
    inv_var = np.exp(-logvar.data)
    value = (-(d * d) * inv_var * 0.5 - logvar.data * 0.5).sum(axis=-1)

    needs = _needs_grad(s, mu, logvar)
    out = Tensor(value, requires_grad=needs,
                 _parents=(s, mu, logvar) if needs else (),
                 _op="gaussian_log_likelihood")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        g = grad[..., None]
        scaled = g * d * inv_var
        if s.requires_grad:
            s._accumulate(-scaled)
        if mu.requires_grad:
            mu._accumulate(scaled)
        if logvar.requires_grad:
            logvar._accumulate(g * ((d * d) * inv_var * 0.5 - 0.5))

    out._backward = _backward
    return out



@profiled_op
def bce_with_logits(logits: Tensor, targets: np.ndarray, pos_weight: float = 1.0) -> Tensor:
    """Single-node BCE-with-logits; ``targets`` is treated as constant."""
    z = logits.data
    t = np.asarray(targets, dtype=z.dtype)
    log_term = np.log1p(np.exp(-np.abs(z)))
    softplus_neg = np.maximum(-z, 0.0) + log_term
    softplus_pos = np.maximum(z, 0.0) + log_term
    per_sample = t * softplus_neg * pos_weight + (1.0 - t) * softplus_pos
    value = np.asarray(per_sample.mean(), dtype=z.dtype)

    needs = _needs_grad(logits)
    out = Tensor(value, requires_grad=needs, _parents=(logits,) if needs else (),
                 _op="bce_with_logits")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-z))
            dz = (t * pos_weight * (sig - 1.0) + (1.0 - t) * sig) / z.size
            logits._accumulate(dz * grad)

    out._backward = _backward
    return out


@profiled_op
def cross_entropy(logits: Tensor, class_ids: np.ndarray) -> Tensor:
    """Single-node categorical cross-entropy with integer class targets."""
    ids = np.asarray(class_ids, dtype=np.int64)
    z = logits.data
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(len(ids))
    value = np.asarray(-log_probs[rows, ids].mean(), dtype=z.dtype)

    needs = _needs_grad(logits)
    out = Tensor(value, requires_grad=needs, _parents=(logits,) if needs else (),
                 _op="cross_entropy")
    if not needs:
        return out

    def _backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            dz = np.exp(log_probs)
            dz[rows, ids] -= 1.0
            logits._accumulate(dz * (grad / len(ids)))

    out._backward = _backward
    return out

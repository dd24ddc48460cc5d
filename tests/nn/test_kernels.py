"""Fused-kernel parity tests.

Every fused node (LSTM/GRU BPTT, BiLSTM, SDPA attention, losses) must
match the seed per-timestep/per-primitive composition in both forward
values and gradients, and pass numeric gradcheck on its hand-written
backward.  The fused LSTM groups ``(x W_i + b) + h W_h`` where the cell
computes ``x W_i + h W_h + b``, so comparisons use allclose tolerances
rather than exact equality.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import kernels
from repro.nn.tensor import Tensor

from ..helpers import check_gradients

_RTOL = 1e-4
_ATOL = 1e-5


def _input(batch=3, seq=5, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, seq, dim)).astype(np.float32)


def _run_module(factory, x_data, fused):
    """Build a fresh module (same init rng), run forward+backward once."""
    with nn.use_fused_kernels(fused):
        module = factory()
        x = Tensor(x_data.copy(), requires_grad=True)
        out = module(x)
        outputs = out[0] if isinstance(out, tuple) else out
        ((outputs * outputs).sum()).backward()
        param_grads = [p.grad.copy() for p in module.parameters()]
    return outputs.data.copy(), x.grad.copy(), param_grads


def _assert_parity(factory, x_data):
    fused_out, fused_dx, fused_grads = _run_module(factory, x_data, fused=True)
    seed_out, seed_dx, seed_grads = _run_module(factory, x_data, fused=False)
    np.testing.assert_allclose(fused_out, seed_out, rtol=_RTOL, atol=_ATOL)
    np.testing.assert_allclose(fused_dx, seed_dx, rtol=_RTOL, atol=_ATOL)
    assert len(fused_grads) == len(seed_grads)
    for got, want in zip(fused_grads, seed_grads):
        np.testing.assert_allclose(got, want, rtol=_RTOL, atol=1e-4)


class TestFusedSwitch:
    def test_default_enabled(self):
        assert nn.fused_kernels_enabled()

    def test_set_returns_previous(self):
        previous = nn.set_fused_kernels(False)
        try:
            assert previous is True
            assert not nn.fused_kernels_enabled()
        finally:
            nn.set_fused_kernels(previous)

    def test_context_manager_restores(self):
        with nn.use_fused_kernels(False):
            assert not nn.fused_kernels_enabled()
            with nn.use_fused_kernels(True):
                assert nn.fused_kernels_enabled()
            assert not nn.fused_kernels_enabled()
        assert nn.fused_kernels_enabled()


class TestRecurrentParity:
    def test_lstm_single_layer(self):
        _assert_parity(
            lambda: nn.LSTM(4, 6, rng=np.random.default_rng(7)), _input(dim=4)
        )

    def test_lstm_multi_layer(self):
        _assert_parity(
            lambda: nn.LSTM(4, 5, num_layers=2, rng=np.random.default_rng(11)),
            _input(dim=4, seed=1),
        )

    def test_gru_single_layer(self):
        _assert_parity(
            lambda: nn.GRU(4, 6, rng=np.random.default_rng(3)), _input(dim=4, seed=2)
        )

    def test_gru_multi_layer(self):
        _assert_parity(
            lambda: nn.GRU(4, 5, num_layers=2, rng=np.random.default_rng(5)),
            _input(dim=4, seed=3),
        )

    def test_bilstm(self):
        _assert_parity(
            lambda: nn.BiLSTM(4, 5, rng=np.random.default_rng(9)), _input(dim=4, seed=4)
        )

    def test_lstm_seq_len_one(self):
        _assert_parity(
            lambda: nn.LSTM(3, 4, rng=np.random.default_rng(2)),
            _input(batch=2, seq=1, dim=3, seed=5),
        )

    def test_last_hidden_matches_outputs(self):
        lstm = nn.LSTM(4, 6, rng=np.random.default_rng(0))
        outputs, last = lstm(Tensor(_input(dim=4)))
        np.testing.assert_allclose(last.data, outputs.data[:, -1, :])


class TestRecurrentGradcheck:
    def test_lstm(self):
        lstm = nn.LSTM(3, 3, rng=np.random.default_rng(0))
        check_gradients(lambda x: (lstm(x)[1] ** 2.0).sum(), (2, 3, 3), atol=5e-2)

    def test_lstm_full_sequence_loss(self):
        lstm = nn.LSTM(3, 3, rng=np.random.default_rng(1))
        check_gradients(lambda x: (lstm(x)[0] ** 2.0).sum(), (2, 3, 3), atol=5e-2)

    def test_gru(self):
        gru = nn.GRU(3, 3, rng=np.random.default_rng(0))
        check_gradients(lambda x: (gru(x)[1] ** 2.0).sum(), (2, 3, 3), atol=5e-2)

    def test_bilstm(self):
        bilstm = nn.BiLSTM(3, 2, rng=np.random.default_rng(0))
        check_gradients(lambda x: (bilstm(x) ** 2.0).sum(), (2, 3, 3), atol=5e-2)


class TestRecurrentInference:
    def test_no_grad_returns_constant(self):
        lstm = nn.LSTM(4, 6, rng=np.random.default_rng(0))
        with nn.no_grad():
            outputs, last = lstm(Tensor(_input(dim=4), requires_grad=True))
        assert not outputs.requires_grad
        assert outputs._backward is None

    def test_constant_input_returns_constant(self):
        gru = nn.GRU(4, 6, rng=np.random.default_rng(0))
        for p in gru.parameters():
            p.requires_grad = False
        outputs, _ = gru(Tensor(_input(dim=4)))
        assert not outputs.requires_grad


class TestFeedForwardParity:
    def test_linear(self):
        _assert_parity(
            lambda: nn.Linear(4, 3, rng=np.random.default_rng(1)), _input(dim=4)
        )

    def test_linear_no_bias(self):
        _assert_parity(
            lambda: nn.Linear(4, 3, bias=False, rng=np.random.default_rng(2)),
            _input(dim=4, seed=1),
        )

    def test_linear_2d_input(self):
        _assert_parity(
            lambda: nn.Linear(5, 2, rng=np.random.default_rng(3)),
            np.random.default_rng(9).standard_normal((6, 5)).astype(np.float32),
        )

    def test_layer_norm(self):
        _assert_parity(lambda: nn.LayerNorm(4), _input(dim=4, seed=2))

    def test_linear_gradcheck(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        check_gradients(lambda x: (layer(x) ** 2.0).sum(), (2, 4, 3), atol=5e-2)

    def test_layer_norm_gradcheck(self):
        norm = nn.LayerNorm(4)
        # Non-trivial affine so gamma/beta participate in the backward.
        norm.gamma.data[:] = np.linspace(0.5, 1.5, 4, dtype=np.float32)
        norm.beta.data[:] = 0.3
        check_gradients(lambda x: (norm(x) ** 2.0).sum(), (2, 3, 4), atol=5e-2)

    def test_gelu(self):
        _assert_parity(lambda: nn.GELU(), _input(dim=4, seed=3))

    def test_gelu_gradcheck(self):
        gelu = nn.GELU()
        check_gradients(lambda x: (gelu(x) ** 2.0).sum(), (3, 4), atol=5e-2)

    def test_dropout_rng_parity(self):
        """Fused dropout consumes the identical RNG draw as the seed mul."""
        x_data = _input(dim=4, seed=4)
        results = {}
        for fused in (True, False):
            with nn.use_fused_kernels(fused):
                layer = nn.Dropout(0.3, rng=np.random.default_rng(5))
                layer.train()
                x = Tensor(x_data.copy(), requires_grad=True)
                out = layer(x)
                ((out * out).sum()).backward()
                results[fused] = (out.data.copy(), x.grad.copy())
        np.testing.assert_allclose(results[True][0], results[False][0],
                                   rtol=_RTOL, atol=_ATOL)
        np.testing.assert_allclose(results[True][1], results[False][1],
                                   rtol=_RTOL, atol=_ATOL)

    def test_dropout_eval_identity(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(_input(dim=4))
        assert layer(x) is x


class TestGaussianLogLikelihoodParity:
    def _run(self, fused):
        from repro.core.club import CLUBEstimator

        rng = np.random.default_rng(10)
        u_data = rng.standard_normal((6, 5)).astype(np.float32)
        s_data = rng.standard_normal((6, 5)).astype(np.float32)
        with nn.use_fused_kernels(fused):
            club = CLUBEstimator(5, 5, hidden_dim=8, rng=np.random.default_rng(1))
            u = Tensor(u_data, requires_grad=True)
            s = Tensor(s_data, requires_grad=True)
            loss = club.learning_loss(u, s)
            loss.backward()
            grads = [p.grad.copy() for p in club.parameters()]
        return float(loss.data), u.grad.copy(), s.grad.copy(), grads

    def test_club_learning_loss_parity(self):
        fused = self._run(True)
        seed = self._run(False)
        np.testing.assert_allclose(fused[0], seed[0], rtol=1e-5)
        np.testing.assert_allclose(fused[1], seed[1], rtol=_RTOL, atol=1e-4)
        np.testing.assert_allclose(fused[2], seed[2], rtol=_RTOL, atol=1e-4)
        for got, want in zip(fused[3], seed[3]):
            np.testing.assert_allclose(got, want, rtol=_RTOL, atol=1e-4)

    def test_gradcheck_each_input(self):
        rng = np.random.default_rng(2)
        mu = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        logvar = Tensor((rng.standard_normal((4, 3)) * 0.3).astype(np.float32),
                        requires_grad=True)
        check_gradients(
            lambda s: kernels.gaussian_log_likelihood(s, mu, logvar).sum(),
            (4, 3), atol=5e-2,
        )
        s = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        check_gradients(
            lambda m: kernels.gaussian_log_likelihood(s, m, logvar).sum(),
            (4, 3), atol=5e-2,
        )
        check_gradients(
            lambda lv: kernels.gaussian_log_likelihood(s, mu, lv).sum(),
            (4, 3), atol=5e-2,
        )


class TestAttentionParity:
    def _run(self, fused, dropout=0.0, train=False, mask=None, seed=0):
        x_data = _input(batch=2, seq=4, dim=8, seed=6)
        with nn.use_fused_kernels(fused):
            mha = nn.MultiHeadAttention(8, 2, dropout=dropout,
                                        rng=np.random.default_rng(seed))
            mha.train() if train else mha.eval()
            x = Tensor(x_data, requires_grad=True)
            out = mha(x, mask=mask)
            ((out * out).sum()).backward()
            grads = [p.grad.copy() for p in mha.parameters()]
        return out.data.copy(), x.grad.copy(), grads

    def _assert_close(self, a, b, atol=_ATOL):
        for got, want in zip(a, b):
            np.testing.assert_allclose(got, want, rtol=_RTOL, atol=atol)

    def _assert_equal(self, a, b):
        # With a float32 scale both paths run the forward and the input
        # gradient in float32, step for step: outputs and dx match exactly.
        # Parameter gradients accumulate in a different order, so they are
        # compared with tolerances.
        for got, want in zip(a, b):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)

    def test_eval_parity(self):
        fused, seed = self._run(True), self._run(False)
        self._assert_equal(fused[:2], seed[:2])
        self._assert_close(fused[2], seed[2], atol=1e-4)

    def test_masked_parity(self):
        mask = np.array([[True, True, False, True], [True, False, True, True]])
        fused = self._run(True, mask=mask)
        seed = self._run(False, mask=mask)
        self._assert_equal(fused[:2], seed[:2])
        # Masked-position grads are ~0 with path-dependent fp residue;
        # compare them on an absolute scale (values are O(10)).
        self._assert_close(fused[2], seed[2], atol=1e-3)

    def test_dropout_rng_parity(self):
        """Same dropout draw (RNG stream) whether fused or not."""
        fused = self._run(True, dropout=0.4, train=True, seed=12)
        seed = self._run(False, dropout=0.4, train=True, seed=12)
        self._assert_equal(fused[:2], seed[:2])
        self._assert_close(fused[2], seed[2], atol=1e-3)

    def test_gradcheck(self):
        mha = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        mha.eval()
        check_gradients(lambda x: (mha(x) ** 2.0).sum(), (2, 3, 8), atol=5e-2)

    def test_raw_kernel_gradcheck(self):
        k = Tensor(_input(batch=2, seq=3, dim=4, seed=7), requires_grad=True)
        v = Tensor(_input(batch=2, seq=3, dim=4, seed=8), requires_grad=True)
        check_gradients(
            lambda q: (kernels.attention(q, k, v, 0.5) ** 2.0).sum(),
            (2, 3, 4), atol=5e-2,
        )


class TestLossParity:
    def test_bce_with_logits(self):
        # No logit sits exactly at 0: the seed abs/relu composition and the
        # closed-form derivative pick different subgradients at the kink.
        logits_data = np.array([-2.0, -0.5, 0.25, 0.7, 3.0], dtype=np.float32)
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0], dtype=np.float32)
        results = {}
        for fused in (True, False):
            with nn.use_fused_kernels(fused):
                logits = Tensor(logits_data.copy(), requires_grad=True)
                loss = nn.binary_cross_entropy_with_logits(logits, targets, pos_weight=3.0)
                loss.backward()
                results[fused] = (float(loss.data), logits.grad.copy())
        np.testing.assert_allclose(results[True][0], results[False][0], rtol=1e-6)
        np.testing.assert_allclose(results[True][1], results[False][1],
                                   rtol=_RTOL, atol=_ATOL)

    def test_bce_grad_tracking_targets_falls_back(self):
        """Fused path treats targets as constant, so grad-tracked targets
        must route through the seed composition (and get gradients)."""
        logits = Tensor(np.array([0.3, -1.0], dtype=np.float32), requires_grad=True)
        targets = Tensor(np.array([1.0, 0.0], dtype=np.float32), requires_grad=True)
        loss = nn.binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        assert targets.grad is not None
        assert logits.grad is not None

    def test_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits_data = rng.standard_normal((6, 4)).astype(np.float32)
        ids = rng.integers(0, 4, size=6)
        results = {}
        for fused in (True, False):
            with nn.use_fused_kernels(fused):
                logits = Tensor(logits_data.copy(), requires_grad=True)
                loss = nn.cross_entropy(logits, ids)
                loss.backward()
                results[fused] = (float(loss.data), logits.grad.copy())
        np.testing.assert_allclose(results[True][0], results[False][0], rtol=1e-6)
        np.testing.assert_allclose(results[True][1], results[False][1],
                                   rtol=_RTOL, atol=_ATOL)

    def test_bce_gradcheck(self):
        targets = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.float32)
        check_gradients(
            lambda x: kernels.bce_with_logits(x, targets, pos_weight=2.0), (4,)
        )

    def test_cross_entropy_gradcheck(self):
        ids = np.array([0, 2, 1], dtype=np.int64)
        check_gradients(lambda x: kernels.cross_entropy(x, ids), (3, 3))

    def test_loss_no_grad(self):
        with nn.no_grad():
            loss = kernels.cross_entropy(
                Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True),
                np.array([0, 1]),
            )
        assert not loss.requires_grad


# The forward formulas as they were before the reductions were rewritten;
# the rewritten kernels must reproduce them bit for bit.
def _reduce_attention_weights(q, k, scale, additive_mask=None):
    scores = q @ np.swapaxes(k, -1, -2) * scale
    if additive_mask is not None:
        scores = scores + additive_mask
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _reduce_layer_norm_forward(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std
    return normalized * gamma + beta, normalized, inv_std


_SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 0.0)


def _salted(rng, shape, dtype):
    """Normal draws at a random scale, with a few specials on some rows."""
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    if rng.random() < 0.5:
        flat = x.reshape(-1)
        for position in rng.integers(0, flat.size, size=rng.integers(1, 4)):
            flat[position] = _SPECIALS[rng.integers(len(_SPECIALS))]
    return x


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestExactReductions:
    """The kernels' reductions (a ``np.maximum`` chain for the softmax
    peak, ``np.add.reduce`` for sums and ``np.add.reduce / n`` for the
    layer-norm means) score exactly like the ``max``/``sum``/``mean``
    formulas they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_weights(self, dtype):
        rng = np.random.default_rng(11)
        with np.errstate(all="ignore"):
            for _ in range(150):
                batch, heads = rng.integers(1, 16), rng.integers(1, 5)
                seq, d_head = rng.integers(1, 13), rng.integers(1, 17)
                q = _salted(rng, (batch, heads, seq, d_head), dtype)
                k = _salted(rng, (batch, heads, seq, d_head), dtype)
                scale = dtype(1.0 / np.sqrt(d_head))
                mask = None
                if rng.random() < 0.5:
                    mask = np.where(rng.random((seq, seq)) < 0.3, -np.inf,
                                    0.0).astype(dtype)
                    mask[rng.integers(seq)] = -np.inf  # one row fully masked
                _assert_bitwise(
                    kernels.attention_weights(q, k, scale, mask),
                    _reduce_attention_weights(q, k, scale, mask))

    def test_attention_weights_on_rows_of_specials(self):
        q = np.ones((1, 1, 4, 1), dtype=np.float32)
        k = np.ones((1, 1, 4, 1), dtype=np.float32)
        mask = np.array([[np.nan, 0.0, 1.0, -0.0],
                         [np.inf, 0.0, 2.0, -1.0],
                         [-np.inf, -np.inf, -np.inf, -np.inf],
                         [-0.0, -0.0, 0.0, -0.0]], dtype=np.float32)
        with np.errstate(all="ignore"):
            _assert_bitwise(kernels.attention_weights(q, k, np.float32(1.0), mask),
                            _reduce_attention_weights(q, k, np.float32(1.0), mask))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_forward(self, dtype):
        rng = np.random.default_rng(12)
        with np.errstate(all="ignore"):
            for _ in range(150):
                shape = tuple(rng.integers(1, 12, size=rng.integers(1, 4)))
                shape += (int(rng.integers(1, 70)),)
                x = _salted(rng, shape, dtype)
                gamma = rng.standard_normal(shape[-1]).astype(dtype)
                beta = rng.standard_normal(shape[-1]).astype(dtype)
                got = kernels.layer_norm_forward(x, gamma, beta, 1e-5)
                want = _reduce_layer_norm_forward(x, gamma, beta, 1e-5)
                for got_part, want_part in zip(got, want):
                    _assert_bitwise(got_part, want_part)

import numpy as np
import pytest

from metafn import nn
from metafn import tensor as T
from metafn.errors import ConfigError, DataError, DimensionError
from metafn.tensor import Tensor


def test_apply_linear_identity():
    out = T.linear(Tensor([1.0, 2.0]).reshape(1, 2),
                   Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [[1.0, 2.0]])


def test_apply_linear_direct_arithmetic():
    # [1,2] @ [[1],[1]] + [3] = 1 + 2 + 3 = 6
    out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([3.0]))
    np.testing.assert_allclose(out.data, [[6.0]])


def test_apply_linear_zero_input_passes_bias():
    rng = np.random.default_rng(0)
    out = T.linear(Tensor([[0.0, 0.0]]),
                   Tensor(rng.standard_normal((2, 2))),
                   Tensor([5.0, -5.0]))
    np.testing.assert_allclose(out.data, [[5.0, -5.0]])


def test_apply_linear_shape_error():
    with pytest.raises(DimensionError):
        T.linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    with pytest.raises(DimensionError):
        T.linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0, 0.0]))


def test_layer_norm_examples():
    g = Tensor([1.0, 1.0])
    b = Tensor([0.0, 0.0])
    out = T.layer_norm(Tensor([[1.0, 3.0]]), g, b)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    const = T.layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
    np.testing.assert_allclose(const.data, np.zeros((1, 3)), atol=1e-12)

    forced = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor([0.0, 0.0]), Tensor([7.0, 7.0]))
    np.testing.assert_allclose(forced.data, [[7.0, 7.0]])


def test_layer_norm_errors():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


def _attn(seed, d=8, heads=2):
    rng = np.random.default_rng(seed)
    return nn.init_attention(rng, d, "attn")


def test_attention_single_token_closed_form():
    p = _attn(1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 1, 8))
    out = nn.self_attention(Tensor(x), p, heads=2)
    # softmax over one key is exactly 1, so out = (x Wv + bv) Wo + bo
    expected = (x @ p.wv.data + p.bv.data) @ p.wo.data + p.bo.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_attention_identical_tokens_identical_outputs():
    p = _attn(3)
    rng = np.random.default_rng(4)
    row = rng.standard_normal(8)
    x = np.tile(row, (2, 2, 1))
    out = nn.self_attention(Tensor(x), p, heads=2).data
    np.testing.assert_allclose(out[:, 0, :], out[:, 1, :], atol=1e-12)


def test_attention_shape_and_finiteness():
    p = _attn(5)
    rng = np.random.default_rng(6)
    out = nn.self_attention(Tensor(rng.standard_normal((2, 3, 8))), p, heads=2)
    assert out.shape == (2, 3, 8)
    assert np.isfinite(out.data).all()


def test_attention_head_divisibility():
    p = _attn(7)
    with pytest.raises(ConfigError):
        nn.self_attention(Tensor(np.zeros((1, 2, 8))), p, heads=3)


def test_attention_gradients_match_finite_differences():
    p = _attn(8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 8))
    w = rng.standard_normal((2, 3, 8))

    def loss_fn():
        return T.tsum(nn.self_attention(Tensor(x), p, heads=2) * w)

    from metafn.gradcheck import check_gradients
    report = check_gradients(loss_fn, p.all(), tol=1e-4)
    assert report.passed, report.summary()


def test_loss_examples():
    # regression, pred == target
    assert nn.compute_loss(Tensor([1.0, -2.0]), np.array([1.0, -2.0]), "regression").item() == 0.0
    # binary, logit 0 target 1 -> ln 2
    val = nn.compute_loss(Tensor([0.0]), np.array([1.0]), "binary").item()
    np.testing.assert_allclose(val, np.log(2.0), rtol=1e-12)
    # regression, pred 0 target 2 -> 4
    assert nn.compute_loss(Tensor([0.0]), np.array([2.0]), "regression").item() == 4.0


def test_loss_binary_target_validation():
    with pytest.raises(DataError):
        nn.compute_loss(Tensor([0.0]), np.array([0.5]), "binary")


def test_loss_accepts_column_predictions():
    val = nn.compute_loss(Tensor([[0.0], [0.0]]), np.array([1.0, 0.0]), "binary").item()
    np.testing.assert_allclose(val, np.log(2.0), rtol=1e-12)


def test_loss_gradients():
    from metafn.gradcheck import check_gradients
    rng = np.random.default_rng(10)
    z = nn.Parameter(rng.standard_normal(5), "logits")
    y = (rng.uniform(size=5) > 0.5).astype(float)
    rep = check_gradients(lambda: nn.compute_loss(z, y, "binary"), [z])
    assert rep.passed, rep.summary()
    w = nn.Parameter(rng.standard_normal(5), "w")
    t = rng.standard_normal(5)
    rep = check_gradients(lambda: nn.compute_loss(w, t, "regression"), [w])
    assert rep.passed, rep.summary()

import numpy as np
import pytest

from metafn import tensor as T
from metafn.calinear import CaLinear, calinear_ffn_forward
from metafn.errors import DimensionError
from metafn.gradcheck import check_gradients
from metafn.model import DatasetSignature, ModelAssembly, ModelConfig
from metafn.nn import Parameter
from metafn.tensor import Tensor, no_grad


def brute_force_mixture(z, weights, biases, coeffs):
    """Reference evaluation: out[b,t] = sum_m c[t,m] * (z[b,t] @ W_m + b_m)."""
    B, S, _ = z.shape
    M = weights.shape[0]
    out = np.zeros((B, S, weights.shape[2]))
    for t in range(S):
        for m in range(M):
            out[:, t, :] += coeffs[t, m] * (z[:, t, :] @ weights[m] + biases[m])
    return out


def make_layer(seed, d_in=3, d_out=2, M=4, hidden=16):
    return CaLinear(d_in, d_out, M, np.random.default_rng(seed), f"ffn{seed}", hidden)


def test_zero_mlp_gives_uniform_coefficients():
    layer = make_layer(0, M=5)
    for p in (layer.cal_w1, layer.cal_b1, layer.cal_w2, layer.cal_b2):
        p.data = np.zeros_like(p.data)
    c = layer.coefficients(Tensor(np.random.default_rng(1).standard_normal(7)))
    np.testing.assert_allclose(c.data, np.full((7, 5), 0.2), atol=1e-15)


def test_equal_context_gives_equal_rows():
    layer = make_layer(2)
    c = layer.coefficients(Tensor([0.37, 0.37, -1.0])).data
    np.testing.assert_array_equal(c[0], c[1])


def test_coefficients_match_hand_evaluation():
    layer = make_layer(3, M=4)
    rng = np.random.default_rng(4)
    for p in layer.parameters():
        p.data = rng.standard_normal(p.shape)
    v = 0.3
    h = np.maximum(np.array([[v]]) @ layer.cal_w1.data + layer.cal_b1.data, 0.0)
    logits = h @ layer.cal_w2.data + layer.cal_b2.data
    e = np.exp(logits - logits.max())
    expected = e / e.sum()
    got = layer.coefficients(Tensor([v])).data
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_simplex_property_over_random_draws():
    rng = np.random.default_rng(5)
    for trial in range(300):
        M = int(rng.integers(2, 7))
        layer = make_layer(1000 + trial, M=M)
        for p in (layer.cal_w1, layer.cal_w2):
            p.data = rng.standard_normal(p.shape)
        c = layer.coefficients(Tensor(rng.standard_normal(4) * 3)).data
        assert np.all(c > 0)
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-9)


def test_single_basis_equals_plain_linear():
    layer = make_layer(6, d_in=4, d_out=3, M=1)
    rng = np.random.default_rng(7)
    z = Tensor(rng.standard_normal((2, 5, 4)))
    c = layer.coefficients(Tensor(rng.standard_normal(5)))
    np.testing.assert_allclose(c.data, np.ones((5, 1)), atol=0)
    out = layer.forward(z, c).data
    plain = T.linear(z, Tensor(layer.weight.data[0]), Tensor(layer.bias.data[0])).data
    np.testing.assert_allclose(out, plain, atol=1e-12)


def test_two_basis_hand_example():
    # d=1 bases: 2z+1 and -z, equal coefficients, z=2 -> 0.5*5 + 0.5*(-2) = 1.5
    layer = make_layer(8, d_in=1, d_out=1, M=2)
    layer.weight.data = np.array([[[2.0]], [[-1.0]]])
    layer.bias.data = np.array([[1.0], [0.0]])
    out = layer.forward(Tensor([[[2.0]]]), Tensor([[0.5, 0.5]]))
    np.testing.assert_allclose(out.data, [[[1.5]]], atol=1e-15)


def test_zero_input_yields_weighted_biases():
    layer = make_layer(9, d_in=3, d_out=2, M=3)
    rng = np.random.default_rng(10)
    c = rng.dirichlet(np.ones(3), size=4)
    out = layer.forward(Tensor(np.zeros((2, 4, 3))), Tensor(c)).data
    expected = c @ layer.bias.data
    np.testing.assert_allclose(out, np.broadcast_to(expected, (2, 4, 2)), atol=1e-12)


def test_forward_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(25):
        M = int(rng.integers(1, 5))
        layer = make_layer(2000 + trial, d_in=3, d_out=4, M=M)
        z = rng.standard_normal((2, 5, 3))
        c = rng.dirichlet(np.ones(M), size=5)
        got = layer.forward(Tensor(z), Tensor(c)).data
        want = brute_force_mixture(z, layer.weight.data, layer.bias.data, c)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_affine_combination_preserved():
    rng = np.random.default_rng(12)
    layer = make_layer(13, d_in=4, d_out=3, M=4)
    for _ in range(200):
        alpha = rng.uniform(-2, 2)
        beta = 1.0 - alpha
        z1 = rng.standard_normal((2, 3, 4))
        z2 = rng.standard_normal((2, 3, 4))
        c = Tensor(rng.dirichlet(np.ones(4), size=3))
        lhs = layer.forward(Tensor(alpha * z1 + beta * z2), c).data
        rhs = alpha * layer.forward(Tensor(z1), c).data + beta * layer.forward(Tensor(z2), c).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_homogeneity_of_linear_part():
    rng = np.random.default_rng(14)
    layer = make_layer(15, d_in=3, d_out=3, M=2)
    c = Tensor(rng.dirichlet(np.ones(2), size=4))
    z = rng.standard_normal((1, 4, 3))
    f0 = layer.forward(Tensor(np.zeros_like(z)), c).data
    fz = layer.forward(Tensor(z), c).data
    for a in (-1.5, 0.25, 3.0):
        faz = layer.forward(Tensor(a * z), c).data
        np.testing.assert_allclose(faz - f0, a * (fz - f0), atol=1e-9)


def test_gradients_reach_all_inputs():
    layer = make_layer(16, d_in=3, d_out=2, M=3)
    rng = np.random.default_rng(17)
    z = rng.standard_normal((2, 4, 3))
    v = Parameter(rng.standard_normal(4) * 0.5, "context")
    w = rng.standard_normal((2, 4, 2))

    def loss():
        c = layer.coefficients(v)
        return T.tsum(layer.forward(Tensor(z), c) * w)

    report = check_gradients(loss, layer.parameters() + [v], tol=1e-4)
    assert report.passed, report.summary()
    # calibration signal flows: dv is generically nonzero
    v.zero_grad()
    loss().backward()
    assert np.any(np.abs(v.grad) > 1e-12)


def test_ffn_single_basis_equals_plain_two_layer():
    rng = np.random.default_rng(18)
    lin1 = make_layer(19, d_in=3, d_out=5, M=1)
    lin2 = make_layer(20, d_in=5, d_out=3, M=1)
    z = rng.standard_normal((2, 4, 3))
    ones = Tensor(np.ones((4, 1)))
    out = calinear_ffn_forward(lin1, lin2, Tensor(z), ones, ones).data
    hidden = np.maximum(z @ lin1.weight.data[0] + lin1.bias.data[0], 0.0)
    want = hidden @ lin2.weight.data[0] + lin2.bias.data[0]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_ffn_negative_preactivation_gives_second_layer_biases():
    lin1 = make_layer(21, d_in=2, d_out=3, M=2)
    lin2 = make_layer(22, d_in=3, d_out=2, M=2)
    lin1.weight.data = np.zeros_like(lin1.weight.data)
    lin1.bias.data = np.full_like(lin1.bias.data, -5.0)  # ReLU kills everything
    rng = np.random.default_rng(23)
    c1 = Tensor(rng.dirichlet(np.ones(2), size=4))
    c2_rows = rng.dirichlet(np.ones(2), size=4)
    out = calinear_ffn_forward(lin1, lin2, Tensor(rng.standard_normal((3, 4, 2))),
                               c1, Tensor(c2_rows)).data
    expected = c2_rows @ lin2.bias.data
    np.testing.assert_allclose(out, np.broadcast_to(expected, (3, 4, 2)), atol=1e-12)


def test_ffn_matches_independent_reimplementation():
    rng = np.random.default_rng(24)
    lin1 = make_layer(25, d_in=2, d_out=3, M=2)
    lin2 = make_layer(26, d_in=3, d_out=2, M=2)
    z = rng.standard_normal((2, 4, 2))
    v = rng.standard_normal(4)
    c1 = lin1.coefficients(Tensor(v))
    c2 = lin2.coefficients(Tensor(v))
    got = calinear_ffn_forward(lin1, lin2, Tensor(z), c1, c2).data
    inner = brute_force_mixture(z, lin1.weight.data, lin1.bias.data, c1.data)
    want = brute_force_mixture(np.maximum(inner, 0.0),
                               lin2.weight.data, lin2.bias.data, c2.data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ffn_width_mismatch():
    lin1 = make_layer(27, d_in=2, d_out=3, M=2)
    lin2 = make_layer(28, d_in=4, d_out=2, M=2)
    ones = Tensor(np.full((1, 2), 0.5))
    with pytest.raises(DimensionError):
        calinear_ffn_forward(lin1, lin2, Tensor(np.zeros((1, 1, 2))), ones, ones)


def tiny_assembly(mode="direct", n_blocks=2, n_features=4, seed=29):
    cfg = ModelConfig(d=8, n_blocks=n_blocks, n_heads=2, n_basis=4, d_ffn=6,
                      cal_hidden=4, mode=mode)
    asm = ModelAssembly(cfg, seed=seed)
    asm.attach_dataset(DatasetSignature("t", "regression", ("numeric",) * n_features, ()))
    return asm


def test_direct_variant_zero_logits_uniform():
    # direct mode starts every layer's logits at zero: uniform coefficients
    asm = tiny_assembly()
    for idx, c in enumerate(asm.coefficients("t")):
        np.testing.assert_allclose(c.data, np.full((5 if idx < 2 else 1, 4), 0.25), atol=0)


def test_direct_variant_same_coefficients_same_output():
    # logits set to the log of the MLP's coefficients reproduce the MLP-mode
    # model: both modes run the same shared basis maps
    mlp, direct = tiny_assembly("mlp", seed=30), tiny_assembly("direct", seed=30)
    rng = np.random.default_rng(31)
    mlp.datasets["t"].context.data = rng.standard_normal(5)
    for idx, c in enumerate(mlp.coefficients("t")):
        direct.datasets["t"].coef_logits[idx].data = np.log(c.data)
    x_num, x_cat = rng.standard_normal((3, 4)), np.empty((3, 0), dtype=np.int64)
    with no_grad():
        want = mlp.forward("t", x_num, x_cat).data
        got = direct.forward("t", x_num, x_cat).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_direct_variant_parameter_count_arithmetic():
    # T=5 tokens, M=4: a direct layer owns one row of 4 logits per token its
    # block's feed-forward reads, 20 in the first three blocks and 4 in the
    # last, which reads only [CLS]; MLP mode needs only the 5 context scalars
    # shared by all layers (8 layers in a 4-block model).
    direct = tiny_assembly(n_blocks=4)
    logits = direct.datasets["t"].coef_logits
    assert [p.size for p in logits] == [20] * 6 + [4] * 2
    mlp = tiny_assembly("mlp", n_blocks=4)

    def coefficient_source_size(asm):
        return sum(p.size for n, p in asm.parameters().items()
                   if n.startswith("datasets.t.coeffs.") or n == "datasets.t.context")

    assert (coefficient_source_size(direct), coefficient_source_size(mlp)) == (6 * 20 + 2 * 4, 5)


def test_shape_validation():
    layer = make_layer(33, d_in=3, d_out=2, M=2)
    with pytest.raises(DimensionError):
        layer.forward(Tensor(np.zeros((2, 4, 5))), Tensor(np.full((4, 2), 0.5)))
    with pytest.raises(DimensionError):
        layer.forward(Tensor(np.zeros((2, 4, 3))), Tensor(np.full((3, 2), 0.5)))

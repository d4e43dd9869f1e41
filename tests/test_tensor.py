import numpy as np
import pytest

from metafn import tensor as T
from metafn.errors import ConfigError, DimensionError
from metafn.gradcheck import check_gradients
from metafn.nn import Parameter
from metafn.tensor import Tensor


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, n):
    scale = max(1e-12, np.max(np.abs(a)) + np.max(np.abs(n)))
    return np.max(np.abs(a - n)) / scale


def check_op(build, x_shape, seed, away_from_zero=False):
    """Verify reverse-mode gradient of a unary graph against finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape)
    if away_from_zero:
        x = x + 0.25 * np.sign(x)
    proj = rng.standard_normal(1)  # fixed scalar weight mix
    w = rng.standard_normal(np.prod(build(Tensor(x)).shape, dtype=int))

    def scalar_of(arr):
        t = Tensor(arr, requires_grad=True)
        out = build(t)
        return float((out.reshape(out.size).data * w).sum() * proj[0])

    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    loss = T.tsum(out.reshape(out.size) * w) * proj[0]
    loss.backward()
    analytic = t.grad
    numeric = numeric_grad(scalar_of, x.copy())
    assert rel_err(analytic, numeric) <= 1e-4


UNARY_CASES = [
    ("relu", lambda t: T.relu(t), dict(away_from_zero=True)),
    ("softplus", lambda t: T.softplus(t), {}),
    ("softmax", lambda t: T.softmax(t), {}),
    ("sum", lambda t: T.tsum(t, axis=0), {}),
    ("mean_keep", lambda t: T.tmean(t, axis=-1, keepdims=True), {}),
    ("reshape", lambda t: t.reshape(6, 2), {}),
    ("slice", lambda t: t[1:3, :], {}),
]


@pytest.mark.parametrize("name,build,kw", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients_100_seeds(name, build, kw):
    for seed in range(100):
        check_op(build, (3, 4), seed, **kw)


def test_binary_and_matmul_gradients_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        c = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((2, 3, 5))

        def loss_of(av, bv, cv):
            ta = Tensor(av, requires_grad=True)
            tb = Tensor(bv, requires_grad=True)
            tc = Tensor(cv, requires_grad=True)
            out = T.linear(ta, tb) * tc + T.tmean(ta) + tc
            loss = T.tsum(out * w)
            return loss, ta, tb, tc

        loss, ta, tb, tc = loss_of(a, b, c)
        loss.backward()

        for arr, t, idx in ((a, ta, 0), (b, tb, 1), (c, tc, 2)):
            def f(x, idx=idx):
                args = [a.copy(), b.copy(), c.copy()]
                args[idx] = x
                return float(loss_of(*args)[0].data)
            assert rel_err(t.grad, numeric_grad(f, arr.copy())) <= 1e-4


def test_fused_linear_and_layernorm_gradients_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        gamma = rng.standard_normal(5) + 1.0
        beta = rng.standard_normal(5)
        mix = rng.standard_normal((2, 3, 5))

        def graph(xv, wv, bv, gv, betv):
            tx, tw, tb = Tensor(xv, True), Tensor(wv, True), Tensor(bv, True)
            tg, tbe = Tensor(gv, True), Tensor(betv, True)
            out = T.layer_norm(T.linear(tx, tw, tb), tg, tbe)
            return T.tsum(out * mix), (tx, tw, tb, tg, tbe)

        loss, tensors = graph(x, w, b, gamma, beta)
        loss.backward()
        args = [x, w, b, gamma, beta]
        for pos, t in enumerate(tensors):
            def f(v, pos=pos):
                vals = [a.copy() for a in args]
                vals[pos] = v
                return float(graph(*vals)[0].data)
            assert rel_err(t.grad, numeric_grad(f, args[pos].copy())) <= 1e-4


def check_input_gradients(graph, arrays):
    """Compare every input gradient of ``graph`` with central differences.

    ``graph(*tensors)`` returns a scalar tensor; each array becomes a leaf
    that requires a gradient.
    """
    def run(values):
        tensors = [Tensor(v, requires_grad=True) for v in values]
        return graph(*tensors), tensors

    loss, tensors = run(arrays)
    loss.backward()
    for pos, t in enumerate(tensors):
        def f(v, pos=pos):
            values = [a.copy() for a in arrays]
            values[pos] = v
            return float(run(values)[0].data)
        assert rel_err(t.grad, numeric_grad(f, arrays[pos].copy())) <= 1e-4


def attention_arrays(rng, B, S, d):
    """x and the six projections wq, bq, wk, wv, bv of one attention node."""
    return [rng.standard_normal((B, S, d)), rng.standard_normal((d, d)), rng.standard_normal(d),
            rng.standard_normal((d, d)), rng.standard_normal((d, d)), rng.standard_normal(d)]


def check_attention_gradients(S, queries):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        arrays = attention_arrays(rng, 2, S, 4)
        mix = rng.standard_normal((2, queries, 4))
        check_input_gradients(lambda *t: T.tsum(T.attention(*t, 2, queries) * mix), arrays)


def test_attention_gradients_100_seeds():
    check_attention_gradients(3, 3)


@pytest.mark.parametrize("n_queries", [1, 2])
def test_attention_with_fewer_queries_than_keys_gradients_100_seeds(n_queries):
    check_attention_gradients(5, n_queries)


def test_mixture_linear_gradients_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((2, 3, 4))
        coeffs = rng.standard_normal((3, 2))
        weight = rng.standard_normal((2, 4, 5))
        bias = rng.standard_normal((2, 5))
        mix = rng.standard_normal((2, 3, 5))
        check_input_gradients(
            lambda tz, tc, tw, tb: T.tsum(T.mixture_linear(tz, tc, tw, tb) * mix),
            [z, coeffs, weight, bias])


# The graphs that attention and the CaLinear mix used to be, built from
# general batched-product and axis-permutation nodes.

def ref_matmul(a, b):
    def backward(g):
        a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        b._accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return Tensor._from_op(a.data @ b.data, (a, b), backward)


def ref_transpose(a, axes):
    inverse = tuple(np.argsort(axes))
    return Tensor._from_op(a.data.transpose(axes), (a,),
                           lambda g: a._accumulate(g.transpose(inverse)))


def ref_attention(x, wq, bq, wk, wv, bv, heads, queries):
    B, S, d = x.shape
    dh = d // heads
    q = T.linear(x if queries == S else x[:, :queries], wq, bq)
    k, v = T.linear(x, wk), T.linear(x, wv, bv)

    def split(t):
        return ref_transpose(t.reshape(B, t.shape[1], heads, dh), (0, 2, 1, 3))

    scores = ref_matmul(split(q), ref_transpose(split(k), (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    ctx = ref_matmul(T.softmax(scores), split(v))
    return ref_transpose(ctx, (0, 2, 1, 3)).reshape(B, queries, d)


def ref_mixture_linear(z, coeffs, weight, bias):
    M, d_in, d_out = weight.shape
    w_flat = weight.reshape(M, d_in * d_out)
    w_eff = T.linear(coeffs, w_flat).reshape(coeffs.shape[0], d_in, d_out)
    out = ref_transpose(ref_matmul(ref_transpose(z, (1, 0, 2)), w_eff), (1, 0, 2))
    return out + T.linear(coeffs, bias)


@pytest.mark.parametrize("tokens,queries", [(6, 6), (6, 1), (6, 2), (40, 40), (40, 1)],
                         ids=["6", "1", "2", "40-tokens", "40-tokens-1-query"])
def test_fused_attention_matches_the_composed_graph(tokens, queries):
    # outputs and projection gradients are bitwise equal; only the input
    # gradient, one packed product in place of three summed ones, rounds
    # differently.  Head width 6 keeps the score scale off a power of two;
    # 40 keys are wider than SWEEP_MAX_KEYS.
    rng = np.random.default_rng(23)
    arrays = attention_arrays(rng, 5, tokens, 12)
    mix = rng.standard_normal((5, queries, 12))

    def run(attention):
        t = [Tensor(a, requires_grad=True) for a in arrays]
        out = attention(*t, 2, queries)
        T.tsum(out * mix).backward()
        return out.data, [p.grad for p in t]

    (fused, fused_grads), (ref, ref_grads) = run(T.attention), run(ref_attention)
    np.testing.assert_array_equal(fused, ref)
    for got, want in zip(fused_grads[1:], ref_grads[1:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(fused_grads[0], ref_grads[0], rtol=0,
                               atol=1e-12 * np.abs(ref_grads[0]).max())


def test_fused_mixture_matches_the_composed_graph_bitwise():
    # two residual blocks of attention and a CaLinear feed-forward whose four
    # coefficient rows share one context, as in the model: the input and the
    # context each take four gradient contributions, so the order they are
    # summed in shows
    rng = np.random.default_rng(17)
    B, S, d, M, d_ffn = 5, 6, 12, 3, 7
    arrays = {
        "x": rng.standard_normal((B, S, d)), "wq": rng.standard_normal((d, d)),
        "bq": rng.standard_normal(d), "wk": rng.standard_normal((d, d)),
        "wv": rng.standard_normal((d, d)), "bv": rng.standard_normal(d),
        "context": rng.standard_normal(S), "cal": rng.standard_normal((1, M)),
        "w1": rng.standard_normal((M, d, d_ffn)), "b1": rng.standard_normal((M, d_ffn)),
        "w2": rng.standard_normal((M, d_ffn, d)), "b2": rng.standard_normal((M, d)),
    }
    mix = rng.standard_normal((B, S, d))

    def run(mixture_linear):
        t = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
        coeffs = [T.softmax(T.linear(t["context"].reshape(S, 1), t["cal"]) * s)
                  for s in (1.0, 2.0, 3.0, 4.0)]
        h = t["x"]
        for c1, c2 in (coeffs[:2], coeffs[2:]):
            h = h + T.attention(h, t["wq"], t["bq"], t["wk"], t["wv"], t["bv"], 2, S)
            h = h + mixture_linear(T.relu(mixture_linear(h, c1, t["w1"], t["b1"])),
                                   c2, t["w2"], t["b2"])
        T.tsum(h * mix).backward()
        return [h.data] + [t[n].grad for n in arrays]

    fused = run(T.mixture_linear)
    for got, want in zip(fused, run(ref_mixture_linear)):
        np.testing.assert_array_equal(got, want)
    assert all(g is not None for g in fused)


class Frozen(Tensor):
    """A constant operand that no backward may hand a gradient to."""
    __slots__ = ()

    def _accumulate(self, g):
        raise AssertionError("a gradient was computed for a frozen operand")


def test_fused_primitives_skip_gradients_of_frozen_operands():
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    coeffs = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    T.tsum(T.mixture_linear(z, coeffs, Frozen(rng.standard_normal((2, 4, 5))),
                            Frozen(rng.standard_normal((2, 5))))).backward()
    assert z.grad is not None and coeffs.grad is not None
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    T.tsum(T.linear(x, Frozen(np.ones((4, 2))), Frozen(np.ones(2)))).backward()
    assert x.grad is not None


def attention_of(x_shape, wk_shape=(6, 6), wv_shape=(6, 6), bq_shape=(6,), heads=2,
                 queries=1):
    x = Tensor(np.zeros(x_shape))
    w, b = Tensor(np.zeros((6, 6))), Tensor(np.zeros(6))
    return T.attention(x, w, Tensor(np.zeros(bq_shape)), Tensor(np.zeros(wk_shape)),
                       Tensor(np.zeros(wv_shape)), b, heads, queries)


def test_attention_validates_shapes():
    with pytest.raises(DimensionError):
        attention_of((2, 6))
    with pytest.raises(ConfigError):
        attention_of((1, 2, 6), heads=4)


@pytest.mark.parametrize("kw", [
    dict(wv_shape=(6, 4)),               # keys and values differ in width
    dict(x_shape=(2, 5, 4)),             # input width
    dict(bq_shape=(4,)),                 # query bias
    dict(queries=0),
    dict(queries=6),                     # more queries than tokens
], ids=["key-value", "width", "bias", "no-queries", "queries"])
def test_attention_with_fewer_queries_rejects_mismatched_operands(kw):
    with pytest.raises(DimensionError):
        attention_of(**{"x_shape": (2, 5, 6), **kw})


def test_attention_with_one_query_matches_the_first_row_of_full_attention():
    rng = np.random.default_rng(3)
    arrays = [Tensor(a) for a in attention_arrays(rng, 2, 5, 6)]
    np.testing.assert_allclose(T.attention(*arrays, 3, 1).data,
                               T.attention(*arrays, 3, 5).data[:, :1], rtol=1e-13)


def test_layer_norm_and_linear_on_non_contiguous_input_match_a_contiguous_copy_bitwise():
    rng = np.random.default_rng(29)
    base = rng.standard_normal((7, 4, 9))
    w, b = rng.standard_normal((7, 5)), rng.standard_normal(5)
    gamma, beta = rng.standard_normal(7), rng.standard_normal(7)
    mix_norm, mix_lin = rng.standard_normal((4, 9, 7)), rng.standard_normal((4, 9, 5))

    def run(x):
        t = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, w, b)]
        norm, lin = T.layer_norm(t[0], t[1], t[2]), T.linear(t[0], t[3], t[4])
        (T.tsum(norm * mix_norm) + T.tsum(lin * mix_lin)).backward()
        return [norm.data, lin.data] + [p.grad for p in t]

    wide = rng.standard_normal((4, 9, 11))
    # the feature axis strided, and rows strided over a wider array
    for strided in (base.transpose(1, 2, 0), wide[..., 2:9]):
        assert not strided.flags.c_contiguous
        for got, want in zip(run(strided), run(np.ascontiguousarray(strided))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_num,cards,rows,frozen_table", [
    (3, (), 4, False), (0, (2, 1, 3), 5, False), (2, (3, 2), 6, False),
    (2, (2,), 1, False), (1, (2, 3), 4, True),
], ids=["numeric", "categorical", "mixed", "one-row", "frozen-table"])
def test_tokens_gradients(n_num, cards, rows, frozen_table):
    rng = np.random.default_rng(n_num + 10 * len(cards) + rows)
    d, n_cat = 3, len(cards)
    sizes = np.asarray(cards, dtype=np.int64) + 1
    x_num = rng.standard_normal((rows, n_num))
    x_idx = rng.integers(0, sizes, (rows, n_cat)) + np.cumsum(sizes) - sizes
    x_idx[-1] = x_idx[0]        # a table row read twice accumulates both gradients

    def param(shape, name):
        return Parameter(rng.standard_normal(shape), name) if shape[0] else None

    cls = param((d,), "cls")
    num_weight, num_bias = param((n_num, d), "num.weight"), param((n_num, d), "num.bias")
    cat_table, cat_bias = param((int(sizes.sum()), d), "cat.table"), param((n_cat, d), "cat.bias")
    mix = rng.standard_normal((rows, 1 + n_num + n_cat, d))

    def loss():
        out = T.tokens(x_num, x_idx, cls, num_weight, num_bias, cat_table, cat_bias)
        return T.tsum(out * mix)

    params = [p for p in (cls, num_weight, num_bias, cat_table, cat_bias) if p is not None]
    if frozen_table:
        cat_table.requires_grad = False
        params.remove(cat_table)
    report = check_gradients(loss, params)
    assert report.passed, report.summary()
    if frozen_table:
        assert cat_table.grad is None


def test_linear_bias_is_optional_and_fuses_bitwise():
    # x @ w + b in one node equals the bias-free product plus a separate add,
    # bit for bit, in the output and in every gradient
    rng = np.random.default_rng(11)
    x, w, b = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 6)), rng.standard_normal(6)
    mix = rng.standard_normal((3, 4, 6))

    def run(fused):
        tx, tw, tb = Tensor(x, True), Tensor(w, True), Tensor(b, True)
        out = T.linear(tx, tw, tb) if fused else T.linear(tx, tw) + tb
        T.tsum(out * mix).backward()
        return out.data, tx.grad, tw.grad, tb.grad

    for got, want in zip(run(True), run(False)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(T.linear(Tensor(x), Tensor(w)).data,
                                  (x.reshape(12, 5) @ w).reshape(3, 4, 6))
    with pytest.raises(DimensionError):
        T.linear(Tensor(x), Tensor(w[None]))


def test_softmax_simplex_and_stability():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = Tensor(rng.standard_normal((4, 6)) * rng.uniform(0.1, 5))
        y = T.softmax(x).data
        assert np.all(y > 0) and np.all(y < 1)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    # extreme logits do not overflow
    y = T.softmax(Tensor([[1000.0, 0.0]])).data
    assert np.isfinite(y).all()


def test_softmax_examples():
    np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(T.softmax(Tensor([np.log(2.0), 0.0])).data,
                               [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(T.softmax(Tensor([5.0])).data, [1.0], atol=0)
    with pytest.raises(DimensionError):
        T.softmax(Tensor(np.zeros((3, 0))))


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,spread", [
    ((3, 4, 9, 9), 1.0), ((3, 4, 40), 1.0), ((9,), 1.0), ((3, 2, 9), 800.0), ((3, 2, 40), 800.0),
], ids=["9-wide", "40-wide", "one-row", "extreme-9-wide", "extreme-40-wide"])
def test_softmax_matches_the_plain_formula_bitwise(shape, spread):
    # both ways of taking the row max, on either side of SWEEP_MAX_KEYS,
    # give the max of the textbook formula
    x = np.random.default_rng(11).standard_normal(shape) * spread
    e = np.exp(x - x.max(-1, keepdims=True))
    assert_bitwise(T.softmax(Tensor(x)).data, e / T._rowsum(e)[..., None])


@pytest.mark.parametrize("keys", [9, 40])
def test_rowsum_does_not_depend_on_memory_layout(keys):
    # key-major scores seen as [B, H, q, S]: the view reshapes to rows
    # without a copy, and a product over it would sum column by column
    key_major = np.random.default_rng(12).standard_normal((keys, 16, 4, 9))
    view = key_major.transpose(1, 2, 3, 0)
    assert_bitwise(T._rowsum(view), T._rowsum(np.ascontiguousarray(view)))


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor([np.inf])


def test_grad_accumulates_across_reuse():
    x = Tensor([2.0], requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward(np.ones(1))
    np.testing.assert_allclose(x.grad, [7.0])


def test_input_without_requires_grad_collects_no_gradient():
    w = Tensor([2.0, -1.0], requires_grad=True)
    frozen = Tensor([3.0, 5.0])
    T.tsum(w * frozen).backward()
    np.testing.assert_array_equal(w.grad, [3.0, 5.0])
    assert frozen.grad is None


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    y2 = x * 2.0
    assert y2.requires_grad


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2.0).backward()


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4))

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        out = T.softmax(T.linear(t, t))
        loss = T.tsum(out * x)
        loss.backward()
        return out.data.copy(), t.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


@pytest.mark.parametrize("idx", [[0, 0], np.array([0, 0]), (slice(None), [1, 1]),
                                 np.array([True, False, True]), True])
def test_getitem_refuses_an_index_that_is_not_basic(idx):
    # an array index may repeat an element, and the scatter of the backward
    # would keep only one of its gradients: T.tsum(a[[0, 0]]) gave [1, 0, 0]
    a = Tensor(np.arange(6.0).reshape(3, 2) if isinstance(idx, tuple) else np.arange(3.0),
               requires_grad=True)
    with pytest.raises(DimensionError, match="basic indices"):
        a[idx]


def test_getitem_takes_ints_slices_none_and_ellipsis():
    a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = T.tsum(a[np.int64(1), None, ..., 1:3] * 2.0)
    np.testing.assert_array_equal(out.data, np.arange(24.0).reshape(2, 3, 4)[1, :, 1:3].sum() * 2)
    out.backward()
    expected = np.zeros((2, 3, 4))
    expected[1, :, 1:3] = 2.0
    np.testing.assert_array_equal(a.grad, expected)


@pytest.mark.parametrize("op", ["mul", "add"])
def test_an_array_on_the_left_defers_to_the_tensor(op):
    t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    left = np.array([2.0, 3.0, 4.0])
    out = left * t if op == "mul" else left + t
    assert isinstance(out, Tensor)
    np.testing.assert_array_equal(out.data, left * t.data if op == "mul" else left + t.data)
    T.tsum(out).backward()
    np.testing.assert_array_equal(t.grad, left if op == "mul" else np.ones(3))

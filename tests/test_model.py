import numpy as np
import pytest

from metafn import model as M
from metafn import tensor as T
from metafn.calinear import calinear_ffn_forward
from metafn.data import SynthSuiteSpec
from metafn.errors import ConfigError, DataError, UsageError
from metafn.gradcheck import check_gradients
from metafn.model import COEFFICIENT_MODES, DatasetSignature, ModelAssembly, ModelConfig
from metafn.nn import compute_loss, self_attention
from metafn.tensor import Tensor, layer_norm, no_grad
from metafn.training import PhaseSpec

SMALL = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)


def mixed_sig(name="toy", task="regression", n_num=2, cards=(3,)):
    kinds = ("numeric",) * n_num + ("categorical",) * len(cards)
    return DatasetSignature(name, task, kinds, tuple(cards))


def numeric_sig(name="nums", task="regression", n=5):
    return DatasetSignature(name, task, ("numeric",) * n, ())


def batch_for(sig, B, seed=0):
    rng = np.random.default_rng(seed)
    x_num = rng.standard_normal((B, sig.n_numeric))
    x_cat = np.column_stack([rng.integers(0, c + 1, B) for c in sig.cardinalities]) \
        if sig.n_categorical else np.empty((B, 0), dtype=np.int64)
    return x_num, x_cat


def test_tokenize_zero_value_gives_bias():
    asm = ModelAssembly(SMALL, seed=1)
    asm.attach_dataset(numeric_sig(n=2))
    tok = asm.datasets["nums"].tokenizer
    out = tok.forward(np.zeros((1, 2)), np.empty((1, 0), dtype=np.int64)).data
    np.testing.assert_allclose(out[0, 1], tok.num_bias.data[0], atol=1e-15)
    np.testing.assert_allclose(out[0, 2], tok.num_bias.data[1], atol=1e-15)


def test_tokenize_unit_value_gives_weight_plus_bias():
    asm = ModelAssembly(SMALL, seed=2)
    asm.attach_dataset(numeric_sig(n=1))
    tok = asm.datasets["nums"].tokenizer
    out = tok.forward(np.ones((1, 1)), np.empty((1, 0), dtype=np.int64)).data
    np.testing.assert_allclose(out[0, 1], tok.num_weight.data[0] + tok.num_bias.data[0],
                               atol=1e-15)


def test_tokenize_shape_with_full_width():
    cfg = ModelConfig(d=192, n_blocks=1, n_heads=8, n_basis=4, d_ffn=256)
    asm = ModelAssembly(cfg, seed=3)
    sig = numeric_sig(n=5)
    asm.attach_dataset(sig)
    x_num, x_cat = batch_for(sig, 3)
    out = asm.datasets["nums"].tokenizer.forward(x_num, x_cat)
    assert out.shape == (3, 6, 192)


def test_tokenize_categorical_lookup_and_unknown_row():
    asm = ModelAssembly(SMALL, seed=4)
    sig = mixed_sig(cards=(3, 2))
    asm.attach_dataset(sig)
    tok = asm.datasets["toy"].tokenizer
    assert tok.cat_table.shape == (4 + 3, 16) and tok.cat_bias.shape == (2, 16)
    np.testing.assert_array_equal(tok.cat_offsets, [0, 4])
    # index card_j is feature j's unknown bucket, the last of its rows
    for row, want in (([3, 2], [3, 6]), ([0, 1], [0, 5])):
        out = tok.forward(np.zeros((1, 2)), np.array([row])).data
        for j in range(2):
            np.testing.assert_array_equal(
                out[0, 3 + j], tok.cat_table.data[want[j]] + tok.cat_bias.data[j])


def test_tokenize_categorical_range_error_names_the_column():
    asm = ModelAssembly(SMALL, seed=4)
    asm.attach_dataset(mixed_sig(cards=(3, 2)))
    tok = asm.datasets["toy"].tokenizer
    for bad in ([[0, 3]], [[0, -1]]):
        with pytest.raises(DataError, match="column 1 of dataset 'toy'"):
            tok.forward(np.zeros((1, 2)), np.array(bad))


def test_tokenize_non_finite_numeric_value_names_the_dataset():
    asm = ModelAssembly(SMALL, seed=4)
    asm.attach_dataset(mixed_sig(cards=(3,)))
    tok = asm.datasets["toy"].tokenizer
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="non-finite numeric value in dataset 'toy'"):
            tok.forward(np.array([[0.0, 1.0], [2.0, bad]]), np.zeros((2, 1), dtype=np.int64))


def test_tokenize_numeric_then_categorical_tokens():
    # manifest order interleaves the kinds; tokens come as [CLS, numeric...,
    # categorical...]
    sig = DatasetSignature("mix", "binary",
                           ("categorical", "numeric", "numeric", "categorical", "numeric"),
                           (3, 2))
    asm = ModelAssembly(SMALL, seed=11)
    asm.attach_dataset(sig)
    tok = asm.datasets["mix"].tokenizer
    x_num, x_cat = batch_for(sig, 4, seed=12)
    out = tok.forward(x_num, x_cat)
    assert out.shape == (4, 6, 16)
    w, b = tok.num_weight.data, tok.num_bias.data
    np.testing.assert_array_equal(out.data[:, 0], np.broadcast_to(tok.cls.data, (4, 16)))
    for j in range(3):
        np.testing.assert_array_equal(out.data[:, 1 + j], x_num[:, j:j + 1] * w[j] + b[j])
    for j in range(2):
        rows = tok.cat_table.data[tok.cat_offsets[j] + x_cat[:, j]]
        np.testing.assert_array_equal(out.data[:, 4 + j], rows + tok.cat_bias.data[j])
    # the gradient of each token reaches exactly its own feature's parameter rows
    own = {1: {"num": {0}}, 2: {"num": {1}}, 3: {"num": {2}},
           4: {"cat_bias": {0}, "cat_table": {0, 1, 2, 3}},
           5: {"cat_bias": {1}, "cat_table": {4, 5, 6}}}
    for pos, rows in own.items():
        for p in tok.parameters():
            p.zero_grad()
        seed = np.zeros(out.shape)
        seed[:, pos] = 1.0
        tok.forward(x_num, x_cat).backward(seed)
        got = {}
        for key, params in (("num", (tok.num_weight, tok.num_bias)),
                            ("cat_table", (tok.cat_table,)), ("cat_bias", (tok.cat_bias,))):
            hit = set()
            for p in params:
                if p.grad is not None:
                    hit |= set(np.flatnonzero(p.grad.any(axis=1)).tolist())
            if hit:
                got[key] = hit
        # a batch of 4 need not look up every row of its feature's vocabulary
        assert set(got) == set(rows), pos
        assert all(got[key] <= rows[key] for key in got), pos
        assert tok.cls.grad is None or not tok.cls.grad.any()


def test_tokenize_wrong_column_count():
    asm = ModelAssembly(SMALL, seed=5)
    asm.attach_dataset(numeric_sig(n=3))
    with pytest.raises(DataError):
        asm.datasets["nums"].tokenizer.forward(np.zeros((2, 2)),
                                               np.empty((2, 0), dtype=np.int64))


def test_forward_shape_and_determinism():
    asm = ModelAssembly(SMALL, seed=6)
    sig = mixed_sig()
    asm.attach_dataset(sig)
    x_num, x_cat = batch_for(sig, 4, seed=7)
    with no_grad():
        a = asm.forward("toy", x_num, x_cat).data
        b = asm.forward("toy", x_num, x_cat).data
    assert a.shape == (4, 1)
    np.testing.assert_array_equal(a, b)


def test_forward_detached_dataset_is_usage_error():
    asm = ModelAssembly(SMALL, seed=8)
    with pytest.raises(UsageError):
        asm.forward("missing", np.zeros((1, 1)), np.empty((1, 0), dtype=np.int64))


def test_attach_duplicate_rejected():
    asm = ModelAssembly(SMALL, seed=9)
    asm.attach_dataset(numeric_sig())
    with pytest.raises(UsageError):
        asm.attach_dataset(numeric_sig())


def test_attach_leaves_shared_untouched_and_context_sized():
    asm = ModelAssembly(SMALL, seed=10)
    before = {n: p.data.copy() for n, p in asm.shared_parameters().items()}
    asm.attach_dataset(numeric_sig(name="a", n=5))
    asm.attach_dataset(mixed_sig(name="b"))
    for n, p in asm.shared_parameters().items():
        np.testing.assert_array_equal(p.data, before[n])
    assert asm.datasets["a"].context.shape == (6,)


def test_perturbing_context_changes_predictions():
    asm = ModelAssembly(SMALL, seed=11)
    sig = numeric_sig(n=3)
    asm.attach_dataset(sig)
    x_num, x_cat = batch_for(sig, 4, seed=12)
    with no_grad():
        base = asm.forward("nums", x_num, x_cat).data.copy()
        asm.datasets["nums"].context.data += 0.5
        moved = asm.forward("nums", x_num, x_cat).data
    assert np.max(np.abs(moved - base)) > 1e-9


def test_partition_disjoint_cover_and_tags():
    asm = ModelAssembly(SMALL, seed=13)
    asm.attach_dataset(mixed_sig(name="task"))
    part = asm.partition_parameters("task")
    names_ds = set(part.dataset)
    names_norm = set(part.shared_norm)
    names_rest = set(part.shared_rest)
    assert not (names_ds & names_norm) and not (names_ds & names_rest)
    assert not (names_norm & names_rest)
    universe = {n for n in asm.parameters() if not n.startswith("datasets.")} \
        | {p.name for p in asm.datasets["task"].parameters()}
    assert names_ds | names_norm | names_rest == universe
    assert any(".ffn.lin1.basis.weight" in n for n in names_rest)
    assert all(("norm1" in n) or ("norm2" in n) for n in names_norm)


def test_partition_count_matches_schema_arithmetic():
    cfg = ModelConfig(d=192, n_blocks=4, n_heads=8, n_basis=4, d_ffn=256)
    asm = ModelAssembly(cfg, seed=14)
    sig = numeric_sig(name="t", n=5)
    asm.attach_dataset(sig)
    part = asm.partition_parameters("t")
    count = sum(p.size for p in part.dataset.values())
    tokenizer = 5 * 192 * 2 + 192        # numeric weights+biases, class token
    head = 192 * 2 + 192 * 1 + 1         # norm gamma/beta, affine
    context = 6
    assert count == tokenizer + head + context


def test_weight_decay_exemptions():
    asm = ModelAssembly(SMALL, seed=15)
    asm.attach_dataset(mixed_sig(name="task"))
    for name, p in asm.parameters().items():
        is_tokenizer = ".tokenizer." in name
        is_norm = ".norm" in name
        is_bias = name.endswith(("bias", ".b1", ".b2", "beta"))
        expected = is_tokenizer or is_norm or is_bias
        assert p.weight_decay_exempt == expected, name


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=10, n_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(mode="bogus")
    with pytest.raises(ConfigError):
        ModelConfig(n_blocks=0)


@pytest.mark.parametrize("build,field", [
    (lambda: ModelConfig(n_heads=0), "n_heads"),
    (lambda: ModelConfig(d=8.0), "d"),
    (lambda: ModelConfig(d=10, n_heads=3), "n_heads"),
    (lambda: ModelConfig(mode="plain"), "mode"),
    (lambda: PhaseSpec("pretrain", epochs=1, batch_cap=0), "batch_cap"),
    (lambda: PhaseSpec("pretrain", epochs=1, base_lr=float("nan")), "base_lr"),
    (lambda: PhaseSpec("pretrain", epochs=-1), "epochs"),
    (lambda: SynthSuiteSpec(n_pretrain=1), "n_pretrain"),
    (lambda: DatasetSignature(5, "regression", ("numeric",), ()), "name"),
    (lambda: DatasetSignature("t", "multiclass", ("numeric",), ()), "task"),
    (lambda: DatasetSignature("t", "regression", ("numeric", "text"), ()), "feature_kinds"),
    (lambda: DatasetSignature("t", "regression", ("categorical",), (3, 4)), "cardinalities"),
], ids=["zero-heads", "float-width", "heads-not-dividing-width", "plain-mode",
    "zero-batch-cap",
        "nan-lr", "negative-epochs", "one-pretrain-table",
        "numeric-name", "multiclass-task", "unknown-feature-kind", "extra-cardinality"])
def test_invalid_spec_raises_config_error_naming_the_field(build, field):
    with pytest.raises(ConfigError, match=f"^{field} "):
        build()


def plain_ffn(lin1, lin2, z, c1, c2):
    """The ordinary two-layer FFN on each layer's basis 0; coefficients unread.
    Swapped in for ``model.calinear_ffn_forward`` it makes an assembly its own
    plain twin."""
    hidden = T.relu(T.linear(z, Tensor(lin1.weight.data[0]), Tensor(lin1.bias.data[0])))
    return T.linear(hidden, Tensor(lin2.weight.data[0]), Tensor(lin2.bias.data[0]))


def test_m1_degeneracy_against_plain_twin(monkeypatch):
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=1, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=16)
    sig = mixed_sig(name="deg")
    asm.attach_dataset(sig)
    rng = np.random.default_rng(17)
    batches = []
    for _ in range(100):
        B = int(rng.integers(1, 6))
        batches.append((rng.standard_normal((B, 2)), rng.integers(0, 4, (B, 1))))
    with no_grad():
        got = [asm.forward("deg", *b).data for b in batches]
        monkeypatch.setattr(M, "calinear_ffn_forward", plain_ffn)
        want = [asm.forward("deg", *b).data for b in batches]
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_direct_mode_creates_per_layer_logits():
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=3, d_ffn=12,
                      cal_hidden=4, mode="direct")
    asm = ModelAssembly(cfg, seed=19)
    sig = numeric_sig(name="t", n=4)
    asm.attach_dataset(sig)
    parts = asm.datasets["t"]
    assert parts.context is None
    assert len(parts.coef_logits) == 2 * cfg.n_blocks
    # the last block's feed-forward reads only the [CLS] token
    assert [p.shape for p in parts.coef_logits] == [(5, 3)] * 2 + [(1, 3)] * 2
    x_num, x_cat = batch_for(sig, 3, seed=20)
    with no_grad():
        out = asm.forward("t", x_num, x_cat)
    assert out.shape == (3, 1)


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_full_model_gradient_check(task):
    cfg = ModelConfig(d=16, n_blocks=2, n_heads=2, n_basis=2, d_ffn=12, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=21)
    sig = mixed_sig(name="gc", task=task, n_num=2, cards=(3,))
    asm.attach_dataset(sig)
    rng = np.random.default_rng(22)
    B = 4
    x_num = rng.standard_normal((B, 2))
    x_cat = rng.integers(0, 4, (B, 1))
    y = rng.standard_normal(B) if task == "regression" \
        else (rng.uniform(size=B) > 0.5).astype(float)

    def loss():
        return compute_loss(asm.forward("gc", x_num, x_cat), y, task)

    params = list(asm.parameters().values())
    report = check_gradients(loss, params, tol=1e-4)
    assert report.passed, report.summary()


# The forward pass as it was before the last block computed only the [CLS]
# query: every block runs attention, norm and feed-forward on all tokens.  The
# last block's one coefficient row, [CLS]'s, serves every token there; only
# token 0 reaches the head, so the other rows' outputs take no gradient.

def full_sequence_forward(asm, dataset, x_num, x_cat):
    parts = asm.datasets[dataset]
    cfg = asm.config
    h = parts.tokenizer.forward(x_num, x_cat)
    for block in asm.blocks:
        a_in = h if block.norm1 is None else layer_norm(h, *block.norm1)
        h = h + self_attention(a_in, block.attn, cfg.n_heads)
        f_in = layer_norm(h, *block.norm2)
        c1, c2 = asm.coefficients(dataset)[2 * block.idx:2 * block.idx + 2]
        ones = np.ones((h.shape[1], cfg.n_basis))   # the one row, repeated for every token
        h = h + calinear_ffn_forward(block.lin1, block.lin2, f_in, c1 * ones, c2 * ones)
    return parts.head.forward(h[:, 0, :])


INTERLEAVED = ("categorical", "numeric", "numeric", "categorical", "numeric")


def spread_assembly(mode, n_blocks, task):
    """An assembly whose coefficient rows differ clearly from token to token."""
    cfg = ModelConfig(d=12, n_blocks=n_blocks, n_heads=3, n_basis=3, d_ffn=10,
                      cal_hidden=5, mode=mode)
    asm = ModelAssembly(cfg, seed=31)
    sig = DatasetSignature("eq", task, INTERLEAVED, (3, 2))
    asm.attach_dataset(sig)
    rng = np.random.default_rng(32)
    parts = asm.datasets["eq"]
    spread = [p for p in (parts.context, *parts.coef_logits) if p is not None]
    if mode == "mlp":
        spread += [p for layer in asm.calinear_layers()
                   for p in (layer.cal_w1, layer.cal_w2)]
    for p in spread:
        p.data = rng.standard_normal(p.shape)
    return asm, sig


@pytest.mark.parametrize("task", ["binary", "regression"])
@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize("mode", COEFFICIENT_MODES)
def test_cls_query_forward_matches_the_full_sequence_forward(mode, n_blocks, task):
    asm, sig = spread_assembly(mode, n_blocks, task)
    x_num, x_cat = batch_for(sig, 6, seed=33)
    rng = np.random.default_rng(34)
    y = (rng.uniform(size=6) > 0.5).astype(float) if task == "binary" \
        else rng.standard_normal(6)
    params = asm.parameters()

    def run(forward):
        for p in params.values():
            p.zero_grad()
        out = forward(asm, "eq", x_num, x_cat)
        compute_loss(out, y, task).backward()
        return out.data, {n: p.grad for n, p in params.items()}

    def assert_close(a, b, name):
        # relative to the tensor's largest entry: entries that come out of
        # cancellation hold few significant digits in either summation order
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(),
                                   err_msg=name)

    got_out, got = run(ModelAssembly.forward)
    want_out, want = run(full_sequence_forward)
    assert_close(got_out, want_out, "output")
    assert {n for n, g in got.items() if g is None} == \
        {n for n, g in want.items() if g is None}
    for name, g in want.items():
        if g is not None:
            assert_close(got[name], g, name)


@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize("mode", COEFFICIENT_MODES)
def test_every_stored_coefficient_source_entry_takes_a_gradient(mode, n_blocks):
    # the context and the logits hold one row per token its layer reads, so
    # with random values one backward moves every entry: none is dead weight
    asm, sig = spread_assembly(mode, n_blocks, "regression")
    parts = asm.datasets["eq"]
    tokens, basis = sig.n_tokens, asm.config.n_basis
    if mode == "mlp":
        sources = [parts.context]
        assert parts.context.shape == (tokens if n_blocks > 1 else 1,)
    else:
        sources = parts.coef_logits
        assert [p.shape for p in sources] == \
            [(tokens, basis)] * (2 * n_blocks - 2) + [(1, basis)] * 2
    x_num, x_cat = batch_for(sig, 6, seed=36)
    y = np.random.default_rng(37).standard_normal(6)
    compute_loss(asm.forward("eq", x_num, x_cat), y, "regression").backward()
    for p in sources:
        assert p.grad is not None and np.all(p.grad != 0), p.name


@pytest.mark.parametrize("mode", COEFFICIENT_MODES)
def test_every_registered_parameter_takes_a_gradient(mode):
    # direct mode draws the calibration MLPs but never reads them, so they
    # must stay out of the registry, the checkpoints and the optimizer
    asm, sig = spread_assembly(mode, 2, "regression")
    x_num, x_cat = batch_for(sig, 6, seed=38)
    y = np.random.default_rng(39).standard_normal(6)
    compute_loss(asm.forward("eq", x_num, x_cat), y, "regression").backward()
    assert [n for n, p in asm.parameters().items() if p.grad is None] == []


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_only_the_last_block_attends_from_the_cls_token_alone(monkeypatch, n_blocks):
    cfg = ModelConfig(d=8, n_blocks=n_blocks, n_heads=2, n_basis=2, d_ffn=6, cal_hidden=4)
    asm = ModelAssembly(cfg, seed=35)
    sig = mixed_sig(n_num=3, cards=(2,))
    asm.attach_dataset(sig)
    shapes = []

    def recording(*args, **kwargs):
        out = self_attention(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(M, "self_attention", recording)
    x_num, x_cat = batch_for(sig, 5)
    assert asm.forward("toy", x_num, x_cat).shape == (5, 1)
    assert shapes == [(5, sig.n_tokens, 8)] * (n_blocks - 1) + [(5, 1, 8)]


ACCEPTANCE = ModelConfig(d=32, n_blocks=2, n_heads=4, n_basis=4, d_ffn=48, cal_hidden=16)


def step_graph_nodes(cfg, sig):
    """Graph nodes of one forward and loss on a fresh assembly."""
    asm = ModelAssembly(cfg, seed=0)
    asm.attach_dataset(sig)
    x_num, x_cat = batch_for(sig, 128)
    y = np.random.default_rng(1).standard_normal(128)
    loss = compute_loss(asm.forward(sig.name, x_num, x_cat), y, "regression")
    nodes, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in nodes:
            nodes.add(id(t))
            stack.extend(t._parents)
    return len(nodes)


def test_acceptance_training_step_builds_49_graph_nodes():
    # pins the fused primitives: the tokenizer and each attention, layer norm
    # and CaLinear mix is one node, so a change that splits one into several
    # nodes fails here
    assert step_graph_nodes(ACCEPTANCE, numeric_sig(n=8)) == 49


def test_graph_nodes_do_not_grow_with_categorical_features():
    # one tokenizer node, whatever the number and kinds of features
    counts = []
    for n_cat in (1, 8):
        kinds = ("numeric", "categorical") * n_cat + ("numeric",) * (8 - n_cat)
        cards = tuple(range(2, 2 + n_cat))
        counts.append(step_graph_nodes(ACCEPTANCE, DatasetSignature("t", "regression",
                                                                    kinds, cards)))
    cat_only = DatasetSignature("c", "regression", ("categorical",) * 3, (2, 3, 4))
    counts.append(step_graph_nodes(ACCEPTANCE, cat_only))
    assert counts == [step_graph_nodes(ACCEPTANCE, numeric_sig(n=8))] * 3

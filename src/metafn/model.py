"""Model assembly: a shared transformer body with per-dataset edges.

The shared body is a stack of pre-norm transformer blocks whose
feed-forward sublayers are pairs of calibratable linear layers.  Each
attached dataset owns its feature tokenizer, output head, and its
coefficient source: in MLP mode a context vector, in direct mode one logit
matrix per layer.  Those are the only parts trained from scratch
downstream.  Each layer's coefficients have one row per token its block's
feed-forward reads: every token in earlier blocks, the [CLS] token alone in
the last block, the only token that goes on to the head.

Coefficient modes:
  * ``mlp``    - coefficients come from each layer's calibration MLP fed
                 with the dataset's context vector (the default).
  * ``direct`` - each dataset owns a learnable logit matrix per layer.

With ``n_basis=1`` every coefficient is 1.0, so each feed-forward sublayer
is an ordinary two-layer FFN: that is the baseline without basis mixing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .calinear import CaLinear, calinear_ffn_forward
from .errors import ConfigError, DataError, UsageError, check_choice, check_int
from .nn import Parameter, init_attention, self_attention, uniform_fan_in
from .tensor import Tensor, layer_norm

COEFFICIENT_MODES = ("mlp", "direct")


@dataclass(frozen=True)
class ModelConfig:
    d: int = 192
    n_blocks: int = 4
    n_heads: int = 8
    n_basis: int = 4
    d_ffn: int = 256
    cal_hidden: int = 16
    mode: str = "mlp"

    def __post_init__(self):
        for name in ("d", "n_blocks", "n_heads", "n_basis", "d_ffn", "cal_hidden"):
            check_int(name, getattr(self, name), 1)
        if self.d % self.n_heads:
            raise ConfigError(f"n_heads must divide d={self.d}, not {self.n_heads}")
        check_choice("mode", self.mode, COEFFICIENT_MODES)


@dataclass(frozen=True)
class DatasetSignature:
    """What the model needs to know about a dataset's shape."""
    name: str
    task: str                        # "binary" | "regression"
    feature_kinds: tuple[str, ...]   # "numeric"/"categorical" per feature, in order
    cardinalities: tuple[int, ...]   # one entry per categorical feature, in order

    @property
    def n_features(self) -> int:
        return len(self.feature_kinds)

    @property
    def n_tokens(self) -> int:
        return self.n_features + 1  # + classification token

    @property
    def n_numeric(self) -> int:
        return sum(k == "numeric" for k in self.feature_kinds)

    @property
    def n_categorical(self) -> int:
        return sum(k == "categorical" for k in self.feature_kinds)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, not {self.name!r}")
        check_choice("task", self.task, ("binary", "regression"))
        for kind in self.feature_kinds:
            check_choice("feature_kinds", kind, ("numeric", "categorical"))
        if len(self.cardinalities) != self.n_categorical:
            raise ConfigError(f"cardinalities must hold one count per categorical feature "
                              f"({self.n_categorical}), not {len(self.cardinalities)}")
        for card in self.cardinalities:
            check_int("cardinalities", card, 1)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSignature":
        return cls(d["name"], d["task"], tuple(d["feature_kinds"]),
                   tuple(d["cardinalities"]))


class FeatureTokenizer:
    """Turns one table row into tokens: [CLS], every numeric feature, then
    every categorical feature, in FT-Transformer's order.  The blocks have no
    positional encoding, so the columns' order in the manifest plays no part.

    Numeric feature j:      token = value * num.weight[j] + num.bias[j]
    Categorical feature j:  token = cat.table[offset_j + index] + cat.bias[j]
    Feature j's card_j + 1 rows of ``cat.table`` start at its offset and end
    with its unknown bucket.
    """

    def __init__(self, sig: DatasetSignature, d: int, rng: np.random.Generator,
                 prefix: str):
        self.sig = sig
        bound = 1.0 / np.sqrt(d)

        def tok_param(shape, name):
            return Parameter(rng.uniform(-bound, bound, shape), name,
                             weight_decay_exempt=True)

        self.cls = tok_param((d,), f"{prefix}.cls")
        n_num, n_cat = sig.n_numeric, sig.n_categorical
        self.num_weight = tok_param((n_num, d), f"{prefix}.num.weight") if n_num else None
        self.num_bias = tok_param((n_num, d), f"{prefix}.num.bias") if n_num else None
        self.cards = np.asarray(sig.cardinalities, dtype=np.int64)
        sizes = self.cards + 1   # each vocabulary plus its unknown bucket
        self.cat_offsets = np.cumsum(sizes) - sizes
        self.cat_table = tok_param((int(sizes.sum()), d), f"{prefix}.cat.table") \
            if n_cat else None
        self.cat_bias = tok_param((n_cat, d), f"{prefix}.cat.bias") if n_cat else None

    def parameters(self) -> list[Parameter]:
        ps = [self.cls, self.num_weight, self.num_bias, self.cat_table, self.cat_bias]
        return [p for p in ps if p is not None]

    def forward(self, x_num: np.ndarray, x_cat: np.ndarray) -> Tensor:
        sig = self.sig
        x_num = np.asarray(x_num, dtype=np.float64)
        x_cat = np.asarray(x_cat, dtype=np.int64)
        if x_num.ndim != 2 or x_cat.ndim != 2 or x_num.shape[0] != x_cat.shape[0]:
            raise DataError("feature matrices must be 2-D with matching row counts")
        if x_num.shape[1] != sig.n_numeric or x_cat.shape[1] != sig.n_categorical:
            raise DataError(
                f"dataset {sig.name!r} expects {sig.n_numeric} numeric and "
                f"{sig.n_categorical} categorical columns, got "
                f"{x_num.shape[1]} and {x_cat.shape[1]}")
        if not np.isfinite(x_num).all():
            raise DataError(f"non-finite numeric value in dataset {sig.name!r}")
        bad = ((x_cat < 0) | (x_cat > self.cards)).any(axis=0)
        if bad.any():
            raise DataError(f"categorical index out of range in column "
                            f"{int(np.argmax(bad))} of dataset {sig.name!r}")
        return T.tokens(x_num, x_cat + self.cat_offsets, self.cls, self.num_weight,
                        self.num_bias, self.cat_table, self.cat_bias)


class OutputHead:
    """Per-dataset readout: layer norm -> ReLU -> affine to one output."""

    def __init__(self, d: int, rng: np.random.Generator, prefix: str):
        self.gamma = Parameter(np.ones(d), f"{prefix}.norm.gamma", weight_decay_exempt=True)
        self.beta = Parameter(np.zeros(d), f"{prefix}.norm.beta", weight_decay_exempt=True)
        self.weight = Parameter(uniform_fan_in(rng, d, (d, 1)), f"{prefix}.weight")
        self.bias = Parameter(uniform_fan_in(rng, d, (1,)), f"{prefix}.bias",
                              weight_decay_exempt=True)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta, self.weight, self.bias]

    def forward(self, h_cls: Tensor) -> Tensor:
        normed = layer_norm(h_cls, self.gamma, self.beta)
        return T.linear(T.relu(normed), self.weight, self.bias)


class Block:
    """Pre-norm transformer block; the first block omits the leading norm."""

    def __init__(self, cfg: ModelConfig, idx: int, rng: np.random.Generator):
        prefix = f"blocks.{idx}"
        self.idx = idx
        self.attn = init_attention(rng, cfg.d, f"{prefix}.attn")
        self.norm1 = None
        if idx > 0:
            self.norm1 = (Parameter(np.ones(cfg.d), f"{prefix}.norm1.gamma",
                                    weight_decay_exempt=True),
                          Parameter(np.zeros(cfg.d), f"{prefix}.norm1.beta",
                                    weight_decay_exempt=True))
        self.norm2 = (Parameter(np.ones(cfg.d), f"{prefix}.norm2.gamma",
                                weight_decay_exempt=True),
                      Parameter(np.zeros(cfg.d), f"{prefix}.norm2.beta",
                                weight_decay_exempt=True))
        self.lin1 = CaLinear(cfg.d, cfg.d_ffn, cfg.n_basis, rng,
                             f"{prefix}.ffn.lin1", cfg.cal_hidden)
        self.lin2 = CaLinear(cfg.d_ffn, cfg.d, cfg.n_basis, rng,
                             f"{prefix}.ffn.lin2", cfg.cal_hidden)
        # direct mode reads no calibration MLP: it is still drawn, so both
        # modes share one RNG stream, but its parameters are not listed
        self.reads_cal_mlp = cfg.mode == "mlp"

    def parameters(self) -> list[Parameter]:
        ps = list(self.attn.all())
        if self.norm1 is not None:
            ps += list(self.norm1)
        ps += list(self.norm2)
        for lin in (self.lin1, self.lin2):
            ps += lin.parameters() if self.reads_cal_mlp else [lin.weight, lin.bias]
        return ps

    def norm_parameters(self) -> list[Parameter]:
        ps = list(self.norm1) if self.norm1 is not None else []
        return ps + list(self.norm2)


@dataclass
class DatasetParts:
    signature: DatasetSignature
    tokenizer: FeatureTokenizer
    head: OutputHead
    context: Parameter | None = None            # mlp mode, one entry per row of layer 0
    coef_logits: list[Parameter] = field(default_factory=list)  # direct mode

    def parameters(self) -> list[Parameter]:
        ps = self.tokenizer.parameters() + self.head.parameters()
        if self.context is not None:
            ps.append(self.context)
        ps += self.coef_logits
        return ps


@dataclass
class ParamPartition:
    """Disjoint cover of an assembly's parameters for one dataset."""
    dataset: dict[str, Parameter]
    shared_norm: dict[str, Parameter]
    shared_rest: dict[str, Parameter]


def _dataset_seed(base_seed: int, name: str) -> np.random.SeedSequence:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return np.random.SeedSequence([base_seed, int.from_bytes(digest[:8], "little")])


class ModelAssembly:
    """Shared transformer body plus per-dataset tokenizers, heads, contexts."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.provenance: str | None = None
        self.dataset_phase: dict[str, str] = {}
        self._registry: dict[str, Parameter] = {}
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5ead]))
        self.blocks = [Block(config, i, rng) for i in range(config.n_blocks)]
        for block in self.blocks:
            for p in block.parameters():
                self._register(p)
        self._shared_norm_names = {p.name for b in self.blocks
                                   for p in b.norm_parameters()}
        self.datasets: dict[str, DatasetParts] = {}

    # -- registry ------------------------------------------------------------

    def _register(self, p: Parameter) -> None:
        if p.name in self._registry:
            raise UsageError(f"duplicate parameter name {p.name!r}")
        self._registry[p.name] = p

    def parameters(self) -> dict[str, Parameter]:
        return dict(self._registry)

    def shared_parameters(self) -> dict[str, Parameter]:
        return {n: p for n, p in self._registry.items() if not n.startswith("datasets.")}

    def calinear_layers(self) -> list[CaLinear]:
        """All mixture layers in block order; a layer's index is its position."""
        return [lin for b in self.blocks for lin in (b.lin1, b.lin2)]

    # -- datasets ------------------------------------------------------------

    def attach_dataset(self, sig: DatasetSignature) -> str:
        """Create fresh dataset-specific parts; the shared body is untouched."""
        if sig.name in self.datasets:
            raise UsageError(f"dataset {sig.name!r} already attached")
        cfg = self.config
        rng = np.random.default_rng(_dataset_seed(self.seed, sig.name))
        prefix = f"datasets.{sig.name}"
        tokenizer = FeatureTokenizer(sig, cfg.d, rng, f"{prefix}.tokenizer")
        head = OutputHead(cfg.d, rng, f"{prefix}.head")
        parts = DatasetParts(sig, tokenizer, head)
        if cfg.mode == "mlp":
            parts.context = Parameter(
                rng.standard_normal(self._coefficient_rows(sig, 0)) * 0.01,
                f"{prefix}.context")
        elif cfg.mode == "direct":
            parts.coef_logits = [
                Parameter(np.zeros((self._coefficient_rows(sig, idx), cfg.n_basis)),
                          f"{prefix}.coeffs.{idx}")
                for idx in range(2 * cfg.n_blocks)]
        for p in parts.parameters():
            self._register(p)
        self.datasets[sig.name] = parts
        return sig.name

    def _parts(self, name: str) -> DatasetParts:
        parts = self.datasets.get(name)
        if parts is None:
            raise UsageError(f"dataset {name!r} is not attached")
        return parts

    # -- forward -------------------------------------------------------------

    def _coefficient_rows(self, sig: DatasetSignature, layer_idx: int) -> int:
        """Tokens that layer ``layer_idx``'s feed-forward reads: all of them,
        except in the last block, where only [CLS] goes on to the head."""
        return 1 if layer_idx >= 2 * self.config.n_blocks - 2 else sig.n_tokens

    def coefficients(self, dataset: str) -> list[Tensor]:
        """Each CaLinear layer's coefficient rows [rows, M], in layer order,
        one row per token the layer reads."""
        parts = self._parts(dataset)
        if self.config.mode == "direct":
            return [T.softmax(logits) for logits in parts.coef_logits]
        context, sig = parts.context, parts.signature
        rows = [self._coefficient_rows(sig, i) for i in range(2 * self.config.n_blocks)]
        return [layer.coefficients(context if context.size == r else context[:r])
                for layer, r in zip(self.calinear_layers(), rows)]

    def forward(self, dataset: str, x_num: np.ndarray, x_cat: np.ndarray) -> Tensor:
        """Predict one logit (binary) or one value (regression) per row: [B, 1]."""
        parts = self._parts(dataset)
        cfg = self.config
        coeffs = self.coefficients(dataset)
        h = parts.tokenizer.forward(x_num, x_cat)
        for block in self.blocks:
            a_in = h if block.norm1 is None else layer_norm(h, *block.norm1)
            # only the [CLS] token reaches the head, so in the last block it
            # alone queries and goes on through the feed-forward sublayer
            if block is self.blocks[-1]:
                h = h[:, :1] + self_attention(a_in, block.attn, cfg.n_heads, 1)
            else:
                h = h + self_attention(a_in, block.attn, cfg.n_heads)
            f_in = layer_norm(h, *block.norm2)
            h = h + calinear_ffn_forward(block.lin1, block.lin2, f_in,
                                         *coeffs[2 * block.idx:2 * block.idx + 2])
        return parts.head.forward(h[:, 0, :])

    # -- partitioning ----------------------------------------------------------

    def partition_parameters(self, dataset: str) -> ParamPartition:
        parts = self._parts(dataset)
        ds = {p.name: p for p in parts.parameters()}
        shared_norm, shared_rest = {}, {}
        for name, p in self.shared_parameters().items():
            group = shared_norm if name in self._shared_norm_names else shared_rest
            group[name] = p
        return ParamPartition(ds, shared_norm, shared_rest)


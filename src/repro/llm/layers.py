"""Neural-network building blocks on top of the autograd engine.

Plain numpy implementations of the layers a weight-only-quantized
Transformer needs: linear projections (the FP-INT GeMM sites), token and
position embeddings, LayerNorm (OPT) and RMSNorm (LLaMA).

Parameters are :class:`repro.llm.autograd.Tensor` instances with
``requires_grad=True``; modules expose ``parameters()`` for the
optimizer and ``state_dict()`` / ``load_state_dict()`` for the zoo
cache.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import overload

import numpy as np

from repro.errors import ModelError
from repro.llm.autograd import Tensor, embedding_lookup

Array = np.ndarray


class Module:
    """Base class: parameter registration via attribute discovery."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{index}.")

    def parameters(self) -> list[Tensor]:
        return [param for _, param in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(param.data.size for param in self.parameters())

    def state_dict(self) -> dict[str, Array]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch; missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ModelError(
                    f"shape mismatch for {name}: model {param.data.shape} "
                    f"vs state {state[name].shape}"
                )
            param.data[...] = state[name]


def _parameter(array: Array) -> Tensor:
    return Tensor(np.asarray(array, dtype=np.float32), requires_grad=True)


class Linear(Module):
    """Affine projection ``y = x @ W + b`` — an FP-INT GeMM site.

    Weight shape is ``(in_features, out_features)`` so activations hit
    the matmul untransposed, matching the grouping-along-reduction-axis
    convention of the Anda format.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        scale = 1.0 / np.sqrt(in_features)
        self.weight = _parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = _parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


#: Widest reduction (``in_features``) slice one row-GeMM call takes.
#: OpenBLAS sends small products (``M*N*K <= 100**3``) to an unblocked
#: kernel and larger ones to a kernel that splits ``K`` into blocks, so
#: past a few hundred ``K`` the two sum a row in different orders.
#: Slices of at most this many columns sum identically in both.
ROW_GEMM_K_BLOCK = 256


def row_gemm(x: Array, linear: Linear) -> Array:
    """``x @ W (+ b)`` for the inference lanes, bitwise row-local.

    Every dense GeMM of the plain-numpy lanes (QKV, out-proj, FFN, LM
    head) goes through here, so a row's bits never depend on which
    rows share its call.  A decode row packed with other requests'
    rows then equals the same row of a sequential ``generate()``.
    Three things make that hold on OpenBLAS:

    * leading axes flatten to one 2-D ``(rows, in_features)`` GeMM;
    * a lone row is padded to two, because ``M == 1`` runs a GeMV
      kernel that accumulates differently from every ``M >= 2`` GeMM;
    * the reduction axis is cut into slices of at most
      :data:`ROW_GEMM_K_BLOCK` columns whose products are summed in
      order, so the small-matrix and blocked kernels agree whatever
      ``M`` is.

    ``tests/llm/test_machine_assumptions.py`` checks the property on
    the live BLAS for every GeMM shape of the model zoo.
    """
    rows = x.reshape(-1, x.shape[-1])
    lone = rows.shape[0] == 1
    if lone:
        rows = np.repeat(rows, 2, axis=0)
    weight = linear.weight.data
    block = ROW_GEMM_K_BLOCK
    out = rows[:, :block] @ weight[:block]
    for start in range(block, weight.shape[0], block):
        out += rows[:, start : start + block] @ weight[start : start + block]
    if lone:
        out = out[:1]
    if linear.bias is not None:
        out = out + linear.bias.data
    return out.reshape(*x.shape[:-1], out.shape[-1])


class Embedding(Module):
    """Token (or position) embedding table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        self.weight = _parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        self.num_embeddings = num_embeddings

    def __call__(self, token_ids: Array) -> Tensor:
        ids = np.asarray(token_ids)
        if ids.max(initial=0) >= self.num_embeddings or ids.min(initial=0) < 0:
            raise ModelError(
                f"token id out of range for embedding of size {self.num_embeddings}"
            )
        return embedding_lookup(self.weight, ids)


class LayerNorm(Module):
    """Standard LayerNorm over the last axis (OPT family).

    A plain ndarray input takes the same op order in plain numpy with
    float32 scalars: bitwise equal to the autograd path, with no graph
    nodes built.  The inference lanes call it that way.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gain = _parameter(np.ones(dim))
        self.shift = _parameter(np.zeros(dim))
        self.eps = eps

    @overload
    def __call__(self, x: Tensor) -> Tensor: ...
    @overload
    def __call__(self, x: Array) -> Array: ...
    def __call__(self, x: Tensor | Array) -> Tensor | Array:
        if isinstance(x, np.ndarray):
            return self._forward_array(x)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (variance + self.eps) ** -0.5
        return normed * self.gain + self.shift

    def _forward_array(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float32)
        scale = np.float32(1.0 / x.shape[-1])
        mean = x.sum(axis=-1, keepdims=True) * scale
        centered = x + (-mean)
        variance = (centered * centered).sum(axis=-1, keepdims=True) * scale
        normed = centered * (variance + np.float32(self.eps)) ** -0.5
        return normed * self.gain.data + self.shift.data


class RMSNorm(Module):
    """Root-mean-square norm without re-centering (LLaMA family).

    Takes the same plain-numpy path as :class:`LayerNorm` for ndarray
    inputs.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gain = _parameter(np.ones(dim))
        self.eps = eps

    @overload
    def __call__(self, x: Tensor) -> Tensor: ...
    @overload
    def __call__(self, x: Array) -> Array: ...
    def __call__(self, x: Tensor | Array) -> Tensor | Array:
        if isinstance(x, np.ndarray):
            return self._forward_array(x)
        mean_square = (x * x).mean(axis=-1, keepdims=True)
        return x * (mean_square + self.eps) ** -0.5 * self.gain

    def _forward_array(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float32)
        scale = np.float32(1.0 / x.shape[-1])
        mean_square = (x * x).sum(axis=-1, keepdims=True) * scale
        return x * (mean_square + np.float32(self.eps)) ** -0.5 * self.gain.data


def make_norm(kind: str, dim: int) -> Module:
    """Factory for the per-family normalization layer."""
    if kind == "layernorm":
        return LayerNorm(dim)
    if kind == "rmsnorm":
        return RMSNorm(dim)
    raise ModelError(f"unknown norm kind {kind!r}")

"""Machine assumptions behind the bitwise parity contract, on the live BLAS.

Serving parity (engine tokens == sequential ``generate()`` tokens)
rests on two properties of the BLAS numpy runs on.  Neither is a
numpy guarantee, so a different BLAS, CPU dispatch target or numpy
upgrade could break them; these tests make that visible.

1. Rows of a row GeMM (``repro.llm.layers.row_gemm``: leading axes
   flattened, a lone row padded to two) are bitwise independent of
   how many rows share the call.  This lets decode rows, prompt chunks
   and sequential single-token forwards share one flat pass.
2. A float64 ``weights @ values`` matmul with float32 values equals the
   same matmul on values cast to float64 first.  This lets the KV
   views hand out float64 values without changing a bit.
"""

import numpy as np
import pytest

from repro.llm.config import SIM_CONFIGS
from repro.llm.layers import Linear, row_gemm

ROWS = (1, 2, 3, 8, 17, 33)


def zoo_gemm_shapes() -> list[tuple[int, int]]:
    """Every dense GeMM ``(in_features, out_features)`` of the sim zoo."""
    shapes = set()
    for config in SIM_CONFIGS.values():
        d, ffn = config.d_model, config.ffn_dim
        shapes.update(
            {(d, 3 * d), (d, d), (d, ffn), (ffn, d), (d, config.vocab_size)}
        )
    return sorted(shapes)


def zoo_head_dims() -> list[int]:
    return sorted({config.head_dim for config in SIM_CONFIGS.values()})


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("rows", ROWS)
def test_row_gemm_rows_equal_rows_computed_alone(rows, dtype):
    rng = np.random.default_rng(rows)
    for d_in, d_out in zoo_gemm_shapes():
        linear = Linear(d_in, d_out, rng)
        linear.bias.data[...] = rng.normal(size=d_out)
        x = rng.normal(size=(rows, d_in)).astype(dtype)
        packed = row_gemm(x, linear)
        # The lanes pass (1, total, d) and (batch, 1, d) shapes too.
        assert row_gemm(x[None], linear)[0].tobytes() == packed.tobytes()
        assert row_gemm(x[:, None], linear)[:, 0].tobytes() == packed.tobytes()
        for index in range(rows):
            alone = row_gemm(x[index : index + 1], linear)
            assert alone[0].tobytes() == packed[index].tobytes(), (
                f"row {index} of an M={rows} GeMM ({d_in}x{d_out}, "
                f"{np.dtype(dtype).name}) differs from the row alone"
            )


@pytest.mark.parametrize("head_dim", zoo_head_dims())
@pytest.mark.parametrize("new", [1, 5])
@pytest.mark.parametrize("length", [1, 7, 33, 130, 257])
def test_float64_context_matmul_ignores_value_precast(head_dim, new, length):
    rng = np.random.default_rng([head_dim, new, length])
    weights = rng.random((1, 4, new, length))
    weights /= weights.sum(axis=-1, keepdims=True)
    values = rng.normal(size=(1, 4, length, head_dim)).astype(np.float32)
    promoted = weights @ values.astype(np.float64)
    mixed = weights @ values
    assert promoted.dtype == mixed.dtype == np.float64
    assert promoted.tobytes() == mixed.tobytes()

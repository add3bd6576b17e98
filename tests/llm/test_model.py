"""Tests for layers, attention, transformer blocks and the causal LM."""

import numpy as np
import pytest

from repro.core.precision import PrecisionCombination, TensorKind
from repro.errors import ModelError
from repro.llm.attention import KVCache, causal_mask
from repro.llm.autograd import Tensor, no_grad
from repro.llm.config import get_config, tiny_test_config
from repro.llm.hooks import ActivationStatsRecorder, anda_quantizer
from repro.llm.layers import Embedding, LayerNorm, Linear, RMSNorm
from repro.llm.transformer import build_model


def tiny_model(family="opt", seed=0):
    return build_model(tiny_test_config(family=family, seed=seed))


class TestLayers:
    def test_linear_shapes(self):
        rng = np.random.default_rng(0)
        layer = Linear(8, 3, rng)
        out = layer(Tensor(np.ones((2, 5, 8), np.float32)))
        assert out.shape == (2, 5, 3)

    def test_linear_no_bias(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None

    def test_layernorm_normalizes(self):
        norm = LayerNorm(16)
        x = Tensor(np.random.default_rng(1).normal(3.0, 5.0, size=(4, 16)))
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_rmsnorm_scale(self):
        norm = RMSNorm(16)
        x = Tensor(np.random.default_rng(2).normal(0.0, 7.0, size=(4, 16)))
        out = norm(x).data
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-2)

    @pytest.mark.parametrize("norm_cls", [LayerNorm, RMSNorm])
    @pytest.mark.parametrize("shape", [(1, 1, 128), (1, 37, 128), (16, 1, 160)])
    def test_ndarray_norm_is_bitwise_equal_to_tensor_path(self, norm_cls, shape):
        # The inference lanes call norms on plain ndarrays: same op
        # order in plain numpy, no autograd graph, identical bits.
        rng = np.random.default_rng(sum(shape))
        norm = norm_cls(shape[-1])
        for param in norm.parameters():
            param.data[...] = rng.normal(size=shape[-1])
        x = (rng.normal(size=shape) * 4.0 + 1.5).astype(np.float32)
        with no_grad():
            expected = norm(Tensor(x)).data
        actual = norm(x)
        assert isinstance(actual, np.ndarray)
        assert actual.dtype == expected.dtype == np.float32
        assert actual.tobytes() == expected.tobytes()

    def test_embedding_range_check(self):
        emb = Embedding(10, 4, np.random.default_rng(3))
        with pytest.raises(ModelError):
            emb(np.array([11]))

    def test_state_dict_round_trip(self):
        model = tiny_model()
        state = model.state_dict()
        clone = tiny_model(seed=123)
        clone.load_state_dict(state)
        tokens = np.arange(10).reshape(1, 10) % 256
        with no_grad():
            a = model.forward(tokens).data
            b = clone.forward(tokens).data
        np.testing.assert_array_equal(a, b)

    def test_state_dict_mismatch_raises(self):
        model = tiny_model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ModelError):
            tiny_model().load_state_dict(state)


class TestCausalMask:
    def test_strictly_upper_triangular(self):
        mask = causal_mask(4)
        assert np.all(mask[np.tril_indices(4)] == 0)
        assert np.all(mask[np.triu_indices(4, k=1)] < -1e8)


class TestForward:
    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_logits_shape(self, family):
        model = tiny_model(family)
        tokens = np.random.default_rng(0).integers(0, 256, size=(2, 12))
        with no_grad():
            logits = model.forward(tokens)
        assert logits.shape == (2, 12, 256)

    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_causality(self, family):
        """Changing a future token must not affect earlier logits."""
        model = tiny_model(family)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 256, size=(1, 10))
        altered = tokens.copy()
        altered[0, -1] = (altered[0, -1] + 7) % 256
        with no_grad():
            base = model.forward(tokens).data
            changed = model.forward(altered).data
        np.testing.assert_allclose(base[0, :9], changed[0, :9], atol=1e-5)
        assert not np.allclose(base[0, 9], changed[0, 9])

    def test_rejects_overlong_sequence(self):
        model = tiny_model()
        too_long = model.config.max_seq_len + 1
        with pytest.raises(ModelError):
            model.forward(np.zeros((1, too_long), dtype=int))

    def test_rejects_1d_tokens(self):
        with pytest.raises(ModelError):
            tiny_model().forward(np.zeros(5, dtype=int))

    def test_loss_positive_and_finite(self):
        model = tiny_model()
        tokens = np.random.default_rng(2).integers(0, 256, size=(2, 16))
        loss = model.loss(tokens)
        assert np.isfinite(loss.data)
        assert float(loss.data) > 0

    def test_loss_gradients_flow_everywhere(self):
        model = tiny_model()
        tokens = np.random.default_rng(3).integers(0, 256, size=(2, 16))
        loss = model.loss(tokens)
        loss.backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        # Every parameter except (possibly) unused position rows gets grads.
        assert with_grad == len(model.parameters())


class TestKVCacheDecode:
    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_cached_matches_full_forward(self, family):
        model = tiny_model(family)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 256, size=(1, 9))
        with no_grad():
            full = model.forward(tokens).data
        caches = model.new_cache()
        prefill = model.forward_step(tokens[:, :5], caches)
        np.testing.assert_allclose(prefill, full[:, :5], atol=2e-3)
        for t in range(5, 9):
            step = model.forward_step(tokens[:, t : t + 1], caches)
            np.testing.assert_allclose(step[:, 0], full[:, t], atol=2e-3)

    def test_cache_length_tracks(self):
        cache = KVCache()
        assert cache.length == 0
        k = np.zeros((1, 2, 3, 4), np.float32)
        cache.append(k, k)
        assert cache.length == 3


class TestActivationTaps:
    def test_recorder_sees_all_four_kinds(self):
        model = tiny_model()
        recorder = ActivationStatsRecorder()
        model.set_recorder(recorder)
        tokens = np.random.default_rng(5).integers(0, 256, size=(1, 8))
        with no_grad():
            model.forward(tokens)
        for kind in TensorKind:
            assert recorder.count[kind] > 0

    def test_quantizer_changes_logits(self):
        model = tiny_model()
        tokens = np.random.default_rng(6).integers(0, 256, size=(1, 16))
        with no_grad():
            base = model.forward(tokens).data
            model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(2)))
            quantized = model.forward(tokens).data
            model.set_quantizer(None)
            restored = model.forward(tokens).data
        assert not np.allclose(base, quantized)
        np.testing.assert_array_equal(base, restored)

    def test_high_precision_quantizer_is_nearly_transparent(self):
        model = tiny_model()
        tokens = np.random.default_rng(7).integers(0, 256, size=(1, 16))
        with no_grad():
            base = model.forward(tokens).data
            model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(16)))
            quantized = model.forward(tokens).data
        scale = np.abs(base).max()
        np.testing.assert_allclose(quantized, base, atol=2e-3 * scale)

    def test_quantizer_during_training_raises(self):
        model = tiny_model()
        model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(4)))
        tokens = np.random.default_rng(8).integers(0, 256, size=(1, 8))
        with pytest.raises(ModelError):
            model.loss(tokens)


class TestConfigs:
    def test_paper_config_lookup(self):
        config = get_config("opt-1.3b")
        assert config.d_model == 2048
        assert config.n_layers == 24

    def test_sim_twin(self):
        assert get_config("opt-1.3b").sim_twin().name == "opt-1.3b-sim"

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            get_config("gpt-5")

    def test_llama_family_properties(self):
        config = get_config("llama-7b")
        assert config.gated_ffn
        assert config.norm == "rmsnorm"
        assert config.ffn_dim == 11008

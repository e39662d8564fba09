import math

import numpy as np
import pytest

from stylecast import text
from stylecast.model import (
    ConfigError, KVCache, ModelConfig, causal_mask, clf_forward, convert_to_classifier,
    encoder_block, extract_latent, init_params, lm_forward, pad_mask,
)
from stylecast.style import CorpusStats, StyleSpec
from stylecast.tensor import (
    Tensor, attention, cross_entropy_mean, grad_check, matmul, slice_rows,
)
from tests.reference import tsum

STATS = CorpusStats(n_sections=4, t_min=0, t_max=100)


def desk_config(**kw):
    base = dict(vocab_size=20, n_sections=4)
    base.update(kw)
    return ModelConfig.desk_scale(**base)


def rand(shape, seed=0, scale=0.3):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32) * scale,
                  requires_grad=True)


class TestConfig:
    def test_presets(self):
        full = ModelConfig.full_scale(vocab_size=5000)
        assert (full.n_layers, full.n_heads, full.d_model) == (12, 12, 768)
        assert full.max_seq == 512 and full.n_sections == 11
        desk = desk_config()
        assert (desk.n_layers, desk.n_heads, desk.d_model, desk.max_seq) == (2, 4, 64, 64)

    def test_head_width_follows_style_mode(self):
        assert desk_config(style_mode="learned10").token_dim == 54
        assert desk_config(style_mode="minmax2").token_dim == 62
        assert desk_config().token_dim == 64

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, n_heads=3, d_model=64, d_ff=64, max_seq=8,
                        vocab_size=10, n_sections=2)
        with pytest.raises(ConfigError):
            desk_config(head_type="classifier", style_mode="minmax2")

    @pytest.mark.parametrize("rate", ["x", None, True, -0.1, 1.0, 5.0, float("nan")])
    def test_dropout_rate_outside_zero_to_one_rejected(self, rate):
        with pytest.raises(ConfigError, match="dropout_rate"):
            desk_config(dropout_rate=rate)

    @pytest.mark.parametrize("rate", [0, 0.0, 0.5, 0.999])
    def test_dropout_rate_in_zero_to_one_accepted(self, rate):
        assert desk_config(dropout_rate=rate).dropout_rate == rate


class TestCausalMask:
    def test_single_position(self):
        m = causal_mask(1)
        assert m.shape == (1, 1) and m[0, 0] == 0.0

    def test_lower_triangular_pattern(self):
        m = causal_mask(3)
        allowed = np.isfinite(m)
        assert allowed.sum() == 6
        assert np.array_equal(allowed, np.tril(np.ones((3, 3), dtype=bool)))

    def test_first_row_only_self(self):
        m = causal_mask(5)
        assert np.isfinite(m[0, 0]) and np.all(np.isneginf(m[0, 1:]))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_square_mask_equals_triu_construction(self, n):
        old = np.zeros((n, n), dtype=np.float32)
        old[np.triu_indices(n, k=1)] = -np.inf
        m = causal_mask(n)
        assert m.dtype == old.dtype and m.tobytes() == old.tobytes()

    @pytest.mark.parametrize("start, n", [(0, 5), (3, 1), (4, 5), (8, 1)])
    def test_offset_rows_are_a_slice_of_the_square_mask(self, start, n):
        m = causal_mask(n, start)
        want = causal_mask(start + n)[start:]
        assert m.shape == (n, start + n) and m.tobytes() == want.tobytes()


class TestAttentionHead:
    """One head of tensor.attention, on projections computed here."""

    def test_single_token_returns_its_value(self):
        x = rand((1, 8), seed=1)
        wq, wk, wv = rand((8, 4), 2), rand((8, 4), 3), rand((8, 4), 4)
        out = attention(matmul(x, wq), matmul(x, wk), matmul(x, wv), 1,
                        np.zeros((1, 1, 1), np.float32))
        assert np.allclose(out.data, matmul(x, wv).data, atol=1e-6)

    def test_identical_keys_split_attention_evenly(self):
        x = Tensor(np.array([[1.0, 2.0], [5.0, -1.0]], dtype=np.float32))
        wk = Tensor(np.zeros((2, 2), dtype=np.float32))  # all keys identical
        wq = rand((2, 2), 5)
        wv = rand((2, 2), 6)
        out = attention(matmul(x, wq), matmul(x, wk), matmul(x, wv), 1,
                        np.zeros((1, 1, 2), np.float32))
        v = matmul(x, wv).data
        assert np.allclose(out.data, 0.5 * (v[0] + v[1]), atol=1e-6)

    def test_causal_first_row_is_v0(self):
        x = rand((3, 6), seed=7)
        wq, wk, wv = rand((6, 3), 8), rand((6, 3), 9), rand((6, 3), 10)

        def head(inp):
            return attention(matmul(inp, wq), matmul(inp, wk), matmul(inp, wv), 1,
                             causal_mask(3)[None])

        out = head(x)
        v = matmul(x, wv).data
        assert np.allclose(out.data[0], v[0], atol=1e-6)
        # and it ignores token 1 entirely
        x2 = Tensor(x.data.copy())
        x2.data[1] += 10.0
        out2 = head(x2)
        assert np.array_equal(out.data[0], out2.data[0])


class TestEncoderBlock:
    def test_zero_weights_identity(self):
        cfg = desk_config()
        params = init_params(cfg, seed=0)
        for name, p in params.items():
            if name.startswith("layer0."):
                p.data[:] = 0.0
        x = rand((5, 64), seed=11)
        out = encoder_block(x, params, "layer0.", cfg.n_heads, np.zeros((1, 1, 5), np.float32))
        assert np.allclose(out.data, x.data)

    def test_shape_contract(self):
        cfg = desk_config()
        params = init_params(cfg, seed=1)
        x = rand((7, 64), seed=12)
        out = encoder_block(x, params, "layer1.", cfg.n_heads, causal_mask(7)[None])
        assert out.data.shape == (7, 64)
        # two sequences of 7 rows: 14 rows out, the first 7 as if alone
        x2 = Tensor(np.concatenate([x.data, x.data[::-1]]))
        both = encoder_block(x2, params, "layer1.", cfg.n_heads, causal_mask(7)[None])
        assert both.data.shape == (14, 64)
        assert np.allclose(both.data[:7], out.data, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        d, heads = 8, 2
        names = ["attn.wq", "attn.wk", "attn.wv", "attn.wo", "ln1.g", "ln1.b",
                 "ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"]
        arrays = []
        for n in names:
            if n.startswith("attn."):
                arrays.append(rng.standard_normal((d, d)) * 0.3)
            elif n in ("ln1.g", "ln2.g"):
                arrays.append(np.ones(d))
            elif n in ("ln1.b", "ln2.b"):
                arrays.append(np.zeros(d))
            elif n == "ffn.w1":
                arrays.append(rng.standard_normal((d, 3 * d)) * 0.3)
            elif n == "ffn.b1":
                arrays.append(np.zeros(3 * d))
            elif n == "ffn.w2":
                arrays.append(rng.standard_normal((3 * d, d)) * 0.3)
            else:
                arrays.append(np.zeros(d))
        x = rng.standard_normal((4, d)) * 0.5
        arrays.append(x)
        mask = causal_mask(4)[None]

        def f(leaves):
            params = {f"b.{n}": t for n, t in zip(names, leaves[:-1])}
            return tsum(encoder_block(leaves[-1], params, "b.", heads, mask))

        coords = [(ai, 0) for ai in range(len(arrays))]
        coords += [(0, i) for i in range(0, d * d, 7)]
        coords += [(8, i) for i in range(0, 3 * d * d, 11)]
        report = grad_check(f, arrays, coords, h=1e-5, tol=1e-6)
        assert report["passed"], report

    def test_desk_scale_block_float32_gradient(self):
        cfg = desk_config()
        params = init_params(cfg, seed=20, zero_head=False)
        names = [n for n in params if n.startswith("layer0.")]
        arrays = [params[n].data for n in names]
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 64)).astype(np.float32) * 0.5
        arrays.append(x)
        mask = causal_mask(6)[None]

        def f(leaves):
            p = dict(zip(names, leaves[:-1]))
            return tsum(encoder_block(leaves[-1], p, "layer0.", cfg.n_heads, mask))

        coords = [(ai, int(rng.integers(arrays[ai].size)))
                  for ai in rng.integers(0, len(arrays), size=60)]
        report = grad_check(f, arrays, coords, h=1e-3, tol=1e-2)
        assert report["passed"], report


class TestLmForward:
    def test_output_shape_512(self):
        cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=512,
                          vocab_size=12, n_sections=2)
        params = init_params(cfg, seed=0)
        ids = list(np.random.default_rng(0).integers(0, 12, size=512))
        logits = lm_forward(params, cfg, ids)
        assert logits.data.shape == (512, 12)

    def test_causality_exact(self):
        cfg = desk_config()
        params = init_params(cfg, seed=3, zero_head=False)
        rng = np.random.default_rng(4)
        ids = list(rng.integers(6, 20, size=16))
        base = lm_forward(params, cfg, ids).data
        j = 9
        changed = list(ids)
        changed[j] = (changed[j] + 1 - 6) % 14 + 6
        pert = lm_forward(params, cfg, changed).data
        assert np.array_equal(base[:j], pert[:j])
        assert not np.array_equal(base[j:], pert[j:])

    def test_zero_head_uniform_loss(self):
        cfg = desk_config()
        params = init_params(cfg, seed=5)  # head zero-initialized
        ids = list(np.random.default_rng(6).integers(6, 20, size=10))
        logits = lm_forward(params, cfg, ids)
        loss = cross_entropy_mean(slice_rows(logits, 0, 9), ids[1:])
        assert abs(loss.item() - math.log(cfg.vocab_size)) < 1e-5

    def test_length_error(self):
        cfg = desk_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            lm_forward(params, cfg, list(range(6, 6 + 65)))

    def test_cache_overflow_past_max_seq_rejected(self):
        cfg = desk_config()
        params = init_params(cfg, seed=0)
        cache = KVCache(cfg)
        lm_forward(params, cfg, [6] * 60, cache=cache)
        with pytest.raises(ValueError, match="60 of 64"):
            lm_forward(params, cfg, [6] * 5, cache=cache)
        assert cache.length == 60
        lm_forward(params, cfg, [6] * 4, cache=cache)
        with pytest.raises(ValueError):
            lm_forward(params, cfg, [6], cache=cache)

    def test_cache_in_training_rejected(self):
        cfg = desk_config(dropout_rate=0.0)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="inference only"):
            lm_forward(params, cfg, [1, 6, 7], train=True, cache=KVCache(cfg))

    def test_cache_of_another_batch_size_rejected(self):
        cfg = desk_config()
        params = init_params(cfg, seed=0)
        cache = KVCache(cfg)
        lm_forward(params, cfg, [1, 6], cache=cache)
        with pytest.raises(ValueError, match="cache of 1 sequences"):
            lm_forward(params, cfg, [[7], [8]], cache=cache)
        assert cache.length == 2

    def test_style_modes_change_logits(self):
        cfg = desk_config(style_mode="minmax2")
        params = init_params(cfg, seed=7, zero_head=False)
        ids = [text.SOS, 6, 7, 8]
        a = lm_forward(params, cfg, ids, StyleSpec(0, 0), STATS).data
        b = lm_forward(params, cfg, ids, StyleSpec(3, 100), STATS).data
        assert not np.allclose(a, b)

    def test_style_mode_requires_spec(self):
        cfg = desk_config(style_mode="minmax2")
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            lm_forward(params, cfg, [1, 6, 7])

    def test_none_mode_ignores_spec(self):
        cfg = desk_config()
        params = init_params(cfg, seed=8, zero_head=False)
        ids = [text.SOS, 6, 7]
        a = lm_forward(params, cfg, ids).data
        b = lm_forward(params, cfg, ids, StyleSpec(1, 50), STATS).data
        assert np.array_equal(a, b)

    def test_determinism(self):
        cfg = desk_config()
        params = init_params(cfg, seed=9, zero_head=False)
        ids = [1, 6, 7, 8, 9]
        assert np.array_equal(lm_forward(params, cfg, ids).data,
                              lm_forward(params, cfg, ids).data)

    def test_permutation_sensitivity(self):
        cfg = desk_config()
        params = init_params(cfg, seed=10, zero_head=False)
        a = lm_forward(params, cfg, [1, 6, 7, 8]).data
        b = lm_forward(params, cfg, [1, 7, 6, 8]).data
        assert not np.array_equal(a, b)


class TestClassifier:
    def test_eleven_logits(self):
        cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=50,
                          vocab_size=20, n_sections=11, head_type="classifier")
        params = init_params(cfg, seed=0)
        logits = clf_forward(params, cfg, [text.SOS, 6, 7, text.EOS])
        assert logits.data.shape == (11,)

    def test_padding_invariance(self):
        cfg = desk_config(head_type="classifier", max_seq=50)
        params = init_params(cfg, seed=1, zero_head=False)
        ids = [text.SOS, 6, 7, 8, text.EOS]
        a = clf_forward(params, cfg, ids).data
        b = clf_forward(params, cfg, ids + [text.PAD] * 10).data
        assert np.allclose(a, b, atol=1e-6)

    def test_zero_head_uniform(self):
        cfg = desk_config(head_type="classifier")
        params = init_params(cfg, seed=2)
        logits = clf_forward(params, cfg, [text.SOS, 6, text.EOS]).data
        assert np.allclose(logits, 0.0)

    def test_all_pad_rejected(self):
        cfg = desk_config(head_type="classifier")
        params = init_params(cfg, seed=3)
        with pytest.raises(ValueError, match="PAD"):
            clf_forward(params, cfg, [text.PAD, text.PAD])

    def test_latent_width_and_factorization(self):
        cfg = desk_config(head_type="classifier")
        params = init_params(cfg, seed=4, zero_head=False)
        ids = [text.SOS, 6, 7, text.EOS, text.PAD]
        latent = extract_latent(params, cfg, ids)
        assert latent.data.shape == (cfg.d_model,)
        via_head = latent.data @ params["head.w"].data + params["head.b"].data
        assert np.allclose(via_head, clf_forward(params, cfg, ids).data, atol=1e-6)

    def test_latent_determinism(self):
        cfg = desk_config(head_type="classifier")
        params = init_params(cfg, seed=5, zero_head=False)
        ids = [text.SOS, 6, 7, text.EOS]
        assert np.array_equal(extract_latent(params, cfg, ids).data,
                              extract_latent(params, cfg, ids).data)

    def test_pad_mask_shape(self):
        m = pad_mask(np.array([[1, 6, text.PAD, text.PAD], [1, 6, 7, text.PAD]]))
        assert m.shape == (2, 1, 4)
        assert np.all(np.isneginf(m[0, :, 2:])) and np.all(np.isfinite(m[0, :, :2]))
        assert np.all(np.isneginf(m[1, :, 3:])) and np.all(np.isfinite(m[1, :, :3]))
        assert np.all(pad_mask(np.array([[1, 6, 7]])) == 0.0)


class TestHeadSwap:
    def test_convert_keeps_backbone_zeroes_head(self):
        cfg = desk_config()
        params = init_params(cfg, seed=6, zero_head=False)
        clf_params, clf_cfg = convert_to_classifier(params, cfg, n_sections=4, max_seq=50)
        assert clf_cfg.head_type == "classifier" and clf_cfg.max_seq == 50
        assert clf_params["head.w"].data.shape == (64, 4)
        assert np.all(clf_params["head.w"].data == 0.0)
        assert np.array_equal(clf_params["layer0.attn.wq"].data,
                              params["layer0.attn.wq"].data)
        assert clf_params["pos_emb"].data.shape == (50, 64)

    def test_styled_model_refuses_conversion(self):
        cfg = desk_config(style_mode="minmax2")
        params = init_params(cfg, seed=7)
        with pytest.raises(ConfigError):
            convert_to_classifier(params, cfg, 4, 50)

    def test_wrong_head_forward_rejected(self):
        cfg = desk_config()
        params = init_params(cfg, seed=8)
        with pytest.raises(ConfigError):
            clf_forward(params, cfg, [1, 6])
        clf_cfg = desk_config(head_type="classifier")
        clf_params = init_params(clf_cfg, seed=9)
        with pytest.raises(ConfigError):
            lm_forward(clf_params, clf_cfg, [1, 6])

import gc
import math

import numpy as np
import pytest

from stylecast import tensor as T
from stylecast.tensor import (
    ShapeError, Tensor, add, cross_entropy_mean, gelu, grad_check, layer_norm, matmul, token_nll,
)
from tests.reference import mul, softmax, tsum


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        eye = t(np.eye(2))
        b = t([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose(matmul(eye, b).data, b.data)

    def test_hand_computed(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        a = t(np.zeros((2, 3)))
        b = t(np.zeros((4, 5)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(a, b)

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = t(rng.standard_normal((3, 4)))
            b = t(rng.standard_normal((4, 5)))
            c = t(rng.standard_normal((5, 2)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.allclose(left, right, rtol=1e-4)

    def test_gradients(self):
        a = t([[1.0, 2.0], [3.0, 4.0]], grad=True)
        b = t([[5.0, 6.0], [7.0, 8.0]], grad=True)
        tsum(matmul(a, b)).backward()
        ones = np.ones((2, 2), dtype=np.float32)
        assert np.allclose(a.grad, ones @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ ones)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(t([0.0, math.log(3.0)])).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-6)

    def test_stability_no_overflow(self):
        out = softmax(t([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999 and out[1] < 1e-6

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = t(rng.standard_normal(8) * rng.uniform(0.1, 30.0))
            assert abs(softmax(x).data.sum() - 1.0) <= 1e-6

    def test_nan_input_rejected(self):
        with pytest.raises(T.NumericError):
            softmax(t([np.nan, 0.0]))


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        out = layer_norm(t([[5.0, 5.0, 5.0]]), t([1.0, 1.0, 1.0]), t([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [0.0, 0.0, 0.0])

    def test_two_point_row(self):
        out = layer_norm(t([[1.0, 3.0]]), t([1.0, 1.0]), t([0.0, 0.0]))
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_zero_gain_gives_bias(self):
        out = layer_norm(t([[1.0, 2.0, 3.0]]), t([0.0, 0.0, 0.0]), t([4.0, 4.0, 4.0]))
        assert np.allclose(out.data, [[4.0, 4.0, 4.0]])

    def test_one_d_row_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(t([1.0, 2.0]), t([1.0, 1.0]), t([0.0, 0.0]))


class TestCrossEntropy:
    def test_peaked_logits_near_zero_loss(self):
        logits = t([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]], grad=True)
        loss = cross_entropy_mean(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_uniform_logits(self):
        loss = cross_entropy_mean(t(np.zeros((2, 4))), [1, 3])
        assert abs(loss.item() - math.log(4.0)) < 1e-6

    def test_ignore_id_masks_positions(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 5)).astype(np.float32)
        masked = cross_entropy_mean(t(z), [2, 0], ignore_id=0).item()
        # hand computation over the single kept position
        row = z[0].astype(np.float64)
        expected = math.log(np.exp(row - row.max()).sum()) + row.max() - row[2]
        assert abs(masked - expected) < 1e-5

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_mean(t(np.zeros((1, 3))), [3])

    def test_all_ignored_is_error(self):
        with pytest.raises(ValueError, match="ignore"):
            cross_entropy_mean(t(np.zeros((2, 3))), [0, 0], ignore_id=0)


    def test_token_nll_is_negative_log_softmax(self):
        z = np.random.default_rng(4).standard_normal((5, 7)) * 30.0
        tgt = np.array([0, 6, 3, 3, 1])
        naive = -np.log(np.exp(z - z.max(axis=1, keepdims=True))
                        / np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True))
        assert np.allclose(token_nll(z, tgt), naive[np.arange(5), tgt], rtol=1e-12)
        assert cross_entropy_mean(Tensor(z), tgt).item() == token_nll(z, tgt).mean()


class TestBackward:
    def test_sum_gives_ones(self):
        w = t([1.0, 2.0, 3.0], grad=True)
        tsum(w).backward()
        assert np.allclose(w.grad, [1.0, 1.0, 1.0])

    def test_square_sum_analytic(self):
        w = t([1.0, 2.0], grad=True)
        tsum(mul(w, w)).backward()
        assert np.allclose(w.grad, [2.0, 4.0])

    def test_accumulation_across_uses(self):
        # w appears twice in w*w; gradient is the sum of per-use contributions
        w = t([3.0], grad=True)
        tsum(mul(w, w)).backward()
        assert np.allclose(w.grad, [6.0])

    def test_non_scalar_rejected(self):
        w = t([1.0, 2.0], grad=True)
        with pytest.raises(T.ShapeError):
            mul(w, w).backward()

    def test_topological_single_visit(self):
        # shared subexpression contributes exactly once per use
        w = t([2.0], grad=True)
        y = mul(w, w)          # y = w^2, dy/dw = 2w = 4
        z = add(y, y)          # z = 2y, dz/dw = 2 * 4 = 8
        tsum(z).backward()
        assert np.allclose(w.grad, [8.0])

    def test_graphs_are_freed_without_the_cycle_collector(self):
        """No backward closure refers to its own output, so no graph is a reference cycle."""
        from stylecast import model, train
        from stylecast.style import CorpusStats, StyleSpec

        cfg = model.ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=16, max_seq=8,
                                vocab_size=12, n_sections=4, style_mode="learned10")
        params = model.init_params(cfg, seed=0, zero_head=False)
        stats = CorpusStats(4, 0, 10)
        batch = [train.LmSample([1, 6, 7, 8, 9], StyleSpec(1, 5)),
                 train.LmSample([1, 9, 8], StyleSpec(2, 7))]
        gc.collect()
        gc.disable()
        try:
            loss = train.lm_batch_loss(params, cfg, batch, stats, train=True,
                                       rng=np.random.default_rng(0))
            loss.backward()
            del loss
            logits = model.lm_forward(params, cfg, [1, 6, 7], StyleSpec(0, 3), stats)
            del logits
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_gelu_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6).astype(np.float64)
        report = grad_check(lambda leaves: tsum(gelu(leaves[0])), [x],
                            [(0, i) for i in range(6)], h=1e-5, tol=1e-6)
        assert report["passed"], report


class TestGradCheck:
    def test_sum_of_squares_is_nearly_exact(self):
        x = np.array([1.0, -2.0, 3.0], dtype=np.float64)
        report = grad_check(lambda leaves: tsum(mul(leaves[0], leaves[0])), [x],
                            [(0, i) for i in range(3)], h=1e-4, tol=1e-7)
        assert report["passed"], report

    def test_cross_entropy_softmax_composite(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 6)).astype(np.float32)

        def f(leaves):
            return cross_entropy_mean(leaves[0], [0, 2, 5, 1])

        coords = [(0, i) for i in range(z.size)]
        report = grad_check(f, [z], coords, h=1e-3, tol=1e-3)
        assert report["passed"], report

    def test_mean_and_layer_norm_composite(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5)).astype(np.float64)
        g = rng.standard_normal(5).astype(np.float64)
        b = rng.standard_normal(5).astype(np.float64)

        def f(leaves):
            return tsum(mul(layer_norm(leaves[0], leaves[1], leaves[2]),
                            layer_norm(leaves[0], leaves[1], leaves[2])))

        coords = [(0, i) for i in range(x.size)] + [(1, i) for i in range(5)]
        report = grad_check(f, [x, g, b], coords, h=1e-5, tol=1e-5)
        assert report["passed"], report


class TestPlumbing:
    def test_bias_row_broadcast(self):
        x = t(np.ones((3, 2)), grad=True)
        b = t([1.0, 2.0], grad=True)
        tsum(add(x, b)).backward()
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_dropout_scales_and_masks(self):
        rng = np.random.default_rng(0)
        x = t(np.ones((200, 10)), grad=True)
        out = T.dropout(x, 0.5, rng)
        kept = out.data != 0.0
        assert np.allclose(out.data[kept], 2.0)
        assert 0.35 < kept.mean() < 0.65

    def test_embedding_scatter(self):
        table = t(np.arange(12, dtype=np.float32).reshape(4, 3), grad=True)
        out = T.embedding(table, [1, 1, 3])
        tsum(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.allclose(table.grad, expected)

    def test_embedding_out_of_range(self):
        table = t(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            T.embedding(table, [4])

    def test_concat_and_slice_inverses(self):
        a = t(np.ones((2, 3)), grad=True)
        b = t(np.full((2, 2), 2.0), grad=True)
        cat = T.concat_cols([a, b])
        assert cat.data.shape == (2, 5)
        assert np.array_equal(cat.data[:, 3:], b.data)
        tsum(mul(cat, t(np.arange(10).reshape(2, 5)))).backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]])
        assert np.allclose(b.grad, [[3.0, 4.0], [8.0, 9.0]])

import numpy as np
import pytest

from stylecast.style import (
    CorpusStats, StyleError, StyleSpec, fuse_embedding, learned_style,
    minmax_style, style_dim,
)
from stylecast.tensor import Tensor
from tests.reference import tsum

STATS = CorpusStats(n_sections=11, t_min=1_000, t_max=2_000)


class TestMinmax:
    def test_earliest_first_section(self):
        assert np.allclose(minmax_style([StyleSpec(0, 1_000)], STATS)[0], [0.0, 0.0])

    def test_latest_last_section(self):
        assert np.allclose(minmax_style([StyleSpec(10, 2_000)], STATS)[0], [1.0, 1.0])

    def test_midpoint(self):
        out = minmax_style([StyleSpec(5, 1_500)], STATS)[0]
        assert np.allclose(out, [0.5, 0.5])

    def test_clamped_outside_range(self):
        out = minmax_style([StyleSpec(10, 9_999)], STATS)[0]
        assert np.allclose(out, [1.0, 1.0])

    def test_monotone_in_time_and_section(self):
        times = list(minmax_style([StyleSpec(3, ts) for ts in (1_100, 1_500, 1_900)], STATS)[:, 1])
        assert times == sorted(times) and len(set(times)) == 3
        secs = list(minmax_style([StyleSpec(s, 1_500) for s in (1, 4, 9)], STATS)[:, 0])
        assert secs == sorted(secs) and len(set(secs)) == 3

    def test_degenerate_stats(self):
        with pytest.raises(StyleError):
            minmax_style([StyleSpec(0, 5)], CorpusStats(1, 0, 10))
        with pytest.raises(StyleError):
            minmax_style([StyleSpec(0, 5)], CorpusStats(4, 10, 10))


def zero_style_params(n_sections=11, hidden=32, dtype=np.float32):
    return (Tensor(np.zeros((n_sections + 1, hidden), dtype=dtype), requires_grad=True),
            Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True),
            Tensor(np.zeros((hidden, 10), dtype=dtype), requires_grad=True),
            Tensor(np.zeros(10, dtype=dtype), requires_grad=True))


def random_style_params(seed=0, n_sections=11, hidden=32):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((n_sections + 1, hidden)).astype(np.float32) * 0.5,
                   requires_grad=True),
            Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True),
            Tensor(rng.standard_normal((hidden, 10)).astype(np.float32) * 0.5,
                   requires_grad=True),
            Tensor(np.zeros(10, dtype=np.float32), requires_grad=True))


class TestLearned:
    def test_zero_params_zero_vector(self):
        out = learned_style([StyleSpec(4, 1_500)], STATS, *zero_style_params())
        assert np.allclose(out.data, 0.0)

    def test_sections_separate_with_nondegenerate_params(self):
        params = random_style_params()
        a, b = learned_style([StyleSpec(1, 1_500), StyleSpec(7, 1_500)], STATS, *params).data
        assert not np.allclose(a, b)
        # each row is what its spec gives alone
        assert np.allclose(a, learned_style([StyleSpec(1, 1_500)], STATS, *params).data[0])

    def test_gradients_reach_both_layers(self):
        w1, b1, w2, b2 = random_style_params()
        out = learned_style([StyleSpec(2, 1_500)], STATS, w1, b1, w2, b2)
        tsum(out).backward()
        for p in (w1, b1, w2, b2):
            assert p.grad is not None
        assert np.any(w1.grad != 0.0) and np.any(w2.grad != 0.0)

    def test_section_out_of_range(self):
        with pytest.raises(IndexError):
            learned_style([StyleSpec(11, 1_500)], STATS, *random_style_params())


class TestFuse:
    def test_width_758_plus_10(self):
        tok = Tensor(np.zeros((5, 758), dtype=np.float32))
        sty = Tensor(np.zeros((1, 10), dtype=np.float32))
        assert fuse_embedding(tok, sty, 768).data.shape == (5, 768)

    def test_width_766_plus_2(self):
        tok = Tensor(np.zeros((5, 766), dtype=np.float32))
        sty = Tensor(np.zeros((1, 2), dtype=np.float32))
        assert fuse_embedding(tok, sty, 768).data.shape == (5, 768)

    def test_none_mode_identity(self):
        tok = Tensor(np.arange(20, dtype=np.float32).reshape(4, 5))
        out = fuse_embedding(tok, None, 5)
        assert out is tok

    def test_rows_share_bitwise_identical_suffix(self):
        rng = np.random.default_rng(2)
        tok = Tensor(rng.standard_normal((7, 6)).astype(np.float32))
        sty = rng.standard_normal(2).astype(np.float32)
        out = fuse_embedding(tok, Tensor(np.atleast_2d(sty)), 8).data
        for r in range(7):
            assert out[r, 6:].tobytes() == sty.tobytes()

    def test_each_sequence_gets_its_own_row(self):
        tok = Tensor(np.zeros((6, 3), dtype=np.float32))
        sty = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out = fuse_embedding(tok, Tensor(sty), 5).data
        assert np.array_equal(out[:3, 3:], np.tile(sty[0], (3, 1)))
        assert np.array_equal(out[3:, 3:], np.tile(sty[1], (3, 1)))

    def test_width_mismatch_rejected(self):
        tok = Tensor(np.zeros((3, 6), dtype=np.float32))
        with pytest.raises(StyleError):
            fuse_embedding(tok, Tensor(np.zeros((1, 3), dtype=np.float32)), 8)
        with pytest.raises(StyleError):
            fuse_embedding(tok, None, 8)

    def test_style_dims(self):
        assert style_dim("learned10") == 10
        assert style_dim("minmax2") == 2
        assert style_dim("none") == 0
        with pytest.raises(StyleError):
            style_dim("bogus")

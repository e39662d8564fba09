"""The batched forward against the per-head, per-sample oracle in tests/reference.py.

Every comparison is to rtol 1e-5 in float32 and 1e-9 in float64, with an
absolute floor of rtol times the largest reference magnitude, so entries
that are zero up to rounding do not decide the test.
"""

import numpy as np
import pytest

from stylecast import text, train
from stylecast.model import ModelConfig, causal_mask, extract_latent, init_params, lm_forward
from stylecast.tensor import ShapeError, Tensor, attention, grad_check
from stylecast.text import build_vocab
from tests import reference as ref
from tests.reference import mul, tsum
from tests.conftest import make_articles, make_regular_articles

RTOL = {np.float32: 1e-5, np.float64: 1e-9}
DTYPES = [np.float32, np.float64]


def close(got, want, dtype):
    want = np.asarray(want)
    rtol = RTOL[dtype]
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * float(np.abs(want).max()))


def small(vocab_size, dtype=np.float32, **kw):
    base = dict(n_layers=2, n_heads=4, d_model=32, d_ff=48, max_seq=40,
                vocab_size=vocab_size, n_sections=4, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    arts = make_regular_articles(12, title_words=2, sub_words=1, body_words=3)
    vocab = build_vocab(arts)
    return arts, vocab, train.corpus_stats(arts, 4)


def ragged_lm(arts, vocab, styled):
    """Lines cut to different lengths; some keep trailing [PAD] targets."""
    full = train.lm_samples_from_articles(arts, vocab, 40, styled=styled)
    cuts = [40, 9, 23, 2, 31, 17, 40, 12]
    return [train.LmSample(s.ids[:n], s.spec) for s, n in zip(full, cuts)]


def grads(params, loss):
    train.zero_gradients(params)
    loss.backward()
    return {k: v.grad for k, v in params.items()}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", ["learned10", "minmax2", "none"])
class TestLmOracle:
    def test_batched_logits_match_per_sequence(self, corpus, mode, dtype):
        arts, vocab, stats = corpus
        cfg = small(vocab.size, style_mode=mode)
        params = init_params(cfg, seed=1, dtype=dtype, zero_head=False)
        batch = ragged_lm(arts, vocab, styled=mode != "none")
        ids = train._pad_batch([s.ids for s in batch])
        logits = lm_forward(params, cfg, ids, [s.spec for s in batch], stats).data
        rows = logits.reshape(len(batch), ids.shape[1], -1)
        for b, s in enumerate(batch):
            want = ref.lm_forward(params, cfg, s.ids, s.spec, stats).data
            close(rows[b, :len(s.ids)], want, dtype)
            close(lm_forward(params, cfg, s.ids, s.spec, stats).data, want, dtype)

    def test_loss_and_every_gradient_match(self, corpus, mode, dtype):
        arts, vocab, stats = corpus
        cfg = small(vocab.size, style_mode=mode)
        params = init_params(cfg, seed=2, dtype=dtype, zero_head=False)
        batch = ragged_lm(arts, vocab, styled=mode != "none")
        want_loss = ref.lm_batch_loss(params, cfg, batch, stats)
        want = grads(params, want_loss)
        got_loss = train.lm_batch_loss(params, cfg, batch, stats)
        got = grads(params, got_loss)
        close(got_loss.item(), want_loss.item(), dtype)
        assert set(got) == set(want)
        for name in want:
            close(got[name], want[name], dtype)

    def test_evaluate_lm_matches(self, corpus, mode, dtype):
        arts, vocab, stats = corpus
        cfg = small(vocab.size, style_mode=mode)
        params = init_params(cfg, seed=3, dtype=dtype, zero_head=False)
        samples = ragged_lm(arts, vocab, styled=mode != "none") * 3  # more than one chunk
        assert len(samples) > train.EVAL_BATCH
        loss, _ = train.evaluate_lm(params, cfg, samples, stats)
        close(loss, ref.evaluate_lm(params, cfg, samples, stats), dtype)


def clf_setup(dtype, n=40):
    arts = make_articles(n, title_words=3)
    vocab = build_vocab(arts)
    cfg = small(vocab.size, dtype, head_type="classifier", max_seq=16)
    params = init_params(cfg, seed=4, dtype=dtype, zero_head=False)
    samples = train.clf_samples_from_articles(arts, vocab, max_len=16)
    # ragged: some titles keep their [PAD] tail, some lose it
    samples = [train.ClfSample(s.ids[:len(s.ids) - (i % 3) * 4], s.label)
               for i, s in enumerate(samples)]
    return cfg, params, samples


@pytest.mark.parametrize("dtype", DTYPES)
class TestClassifierOracle:
    def test_latents_match_per_sequence(self, dtype):
        cfg, params, samples = clf_setup(dtype)
        ids = train._pad_batch([s.ids for s in samples])
        batched = extract_latent(params, cfg, ids).data
        for b, s in enumerate(samples):
            want = ref.clf_hidden(params, cfg, s.ids).data[0]
            close(batched[b], want, dtype)
            close(extract_latent(params, cfg, s.ids).data, want, dtype)

    def test_loss_and_every_gradient_match(self, dtype):
        cfg, params, samples = clf_setup(dtype, n=12)
        want_loss = ref.clf_batch_loss(params, cfg, samples)
        want = grads(params, want_loss)
        got_loss = train.clf_batch_loss(params, cfg, samples)
        got = grads(params, got_loss)
        close(got_loss.item(), want_loss.item(), dtype)
        for name in want:
            close(got[name], want[name], dtype)

    def test_confusion_matrix_identical(self, dtype):
        cfg, params, samples = clf_setup(dtype)
        assert len(samples) > train.EVAL_BATCH
        acc, confusion = train.evaluate_accuracy(params, cfg, samples)
        want = ref.confusion(params, cfg, samples)
        assert np.array_equal(confusion, want)
        assert acc == np.trace(want) / len(samples)


class TestAttentionOp:
    """tensor.attention alone: gradients, masks, and batch independence."""

    def qkv(self, b, t, d, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((b * t, d)).astype(dtype) for _ in range(3)]

    @pytest.mark.parametrize("kind", ["causal", "pad"])
    def test_float64_gradient(self, kind):
        b, t, d, heads = 3, 5, 6, 2
        arrays = self.qkv(b, t, d, seed=0)
        if kind == "causal":
            mask = causal_mask(t)[None]
        else:
            ids = np.array([[7, 8, 9, 0, 0], [7, 8, 9, 9, 9], [7, 0, 0, 0, 0]])
            mask = np.where(ids == text.PAD, -np.inf, 0.0)[:, None, :]
        weight = Tensor(np.random.default_rng(1).standard_normal((b * t, d)))

        def f(leaves):
            return tsum(mul(attention(*leaves, heads, mask), weight))

        coords = [(a, i) for a in range(3) for i in range(0, b * t * d, 4)]
        report = grad_check(f, arrays, coords, h=1e-5, tol=1e-6)
        assert report["passed"], report

    def test_float64_gradient_with_fewer_queries_than_keys(self):
        b, tq, tk, d, heads = 2, 3, 5, 6, 2
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal((b * t, d)) for t in (tq, tk, tk)]
        mask = causal_mask(tq, tk - tq)[None]
        weight = Tensor(rng.standard_normal((b * tq, d)))

        def f(leaves):
            return tsum(mul(attention(*leaves, heads, mask), weight))

        coords = [(a, i) for a in range(3) for i in range(0, arrays[a].size, 3)]
        report = grad_check(f, arrays, coords, h=1e-5, tol=1e-6)
        assert report["passed"], report

    @pytest.mark.parametrize("k_rows, v_rows, tk", [(10, 8, 5), (10, 10, 4)],
                             ids=["k and v rows differ", "mask Tk does not divide k rows"])
    def test_key_shapes_rejected(self, k_rows, v_rows, tk):
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(rng.standard_normal((n, 4))) for n in (2, k_rows, v_rows))
        with pytest.raises(ShapeError):
            attention(q, k, v, 2, np.zeros((1, 1, tk)))

    def test_one_sequence_equals_its_row_in_a_batch_of_five(self):
        t, d, heads = 7, 8, 2
        q, k, v = self.qkv(5, t, d, seed=2, dtype=np.float32)
        mask = causal_mask(t)[None]
        batched = attention(Tensor(q), Tensor(k), Tensor(v), heads, mask).data
        for b in range(5):
            rows = slice(b * t, (b + 1) * t)
            one = attention(Tensor(q[rows]), Tensor(k[rows]), Tensor(v[rows]), heads, mask)
            assert np.array_equal(one.data, batched[rows])

    def test_matches_per_head_reference(self):
        t, d, heads = 6, 8, 4
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((t, d)))
        w = [Tensor(rng.standard_normal((d, d)) * 0.3) for _ in range(3)]
        mask = causal_mask(t)
        fused = attention(*(Tensor(x.data @ m.data) for m in w), heads, mask[None])
        dh = d // heads
        per_head = [ref.attention_head(x, *(Tensor(m.data[:, h * dh:(h + 1) * dh]) for m in w),
                                       mask).data for h in range(heads)]
        close(fused.data, np.concatenate(per_head, axis=1), np.float64)


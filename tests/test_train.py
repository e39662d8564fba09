import math
from dataclasses import asdict

import numpy as np
import pytest

from stylecast.checkpoint import load_checkpoint, save_checkpoint
from stylecast.model import ModelConfig, convert_to_classifier, init_params
from stylecast.tensor import Tensor, add
from stylecast.text import TITLE_LEN, build_vocab, split_shuffled
from stylecast.train import (
    AdamWState, TrainConfig, TrainError, adamw_step, clf_batch_loss, clf_samples_from_articles,
    clip_gradients, corpus_stats, evaluate_accuracy, evaluate_lm, fine_tune_classifier,
    lm_batch_loss, lm_samples_from_articles, perplexity, sgd_step, train_lm,
    zero_gradients,
)
from tests.conftest import make_articles, make_regular_articles
from tests.reference import mul, tsum


def one_param(value, grad=None):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    if grad is not None:
        p.grad = np.array([grad], dtype=np.float32)
    return {"p": p}


class TestSgd:
    def test_arithmetic(self):
        params = one_param(1.0, 0.5)
        sgd_step(params, 0.1)
        assert np.allclose(params["p"].data, [0.95])

    def test_zero_gradient_no_move(self):
        params = one_param(2.0, 0.0)
        sgd_step(params, 0.1)
        assert np.allclose(params["p"].data, [2.0])

    def test_zero_lr_no_move(self):
        params = one_param(2.0, 1.0)
        sgd_step(params, 0.0)
        assert np.allclose(params["p"].data, [2.0])

    def test_missing_grad_is_contract_error(self):
        with pytest.raises(TrainError):
            sgd_step(one_param(1.0), 0.1)


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        params = one_param(1.0, 0.3)
        adamw_step(params, AdamWState(), lr=0.01)
        # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert abs(params["p"].data[0] - (1.0 - 0.01)) < 1e-6

    def test_zero_grad_zero_decay_no_move(self):
        params = one_param(5.0, 0.0)
        adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.0)
        assert np.allclose(params["p"].data, [5.0])

    def test_decoupled_decay_shrinks(self):
        params = one_param(5.0, 0.0)
        adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.5)
        assert np.allclose(params["p"].data, [5.0 * (1 - 0.1 * 0.5)])

    def test_missing_state_is_contract_error(self):
        with pytest.raises(TrainError):
            adamw_step(one_param(1.0, 1.0), None, lr=0.1)


class TestOptimizerConvergence:
    @pytest.mark.parametrize("optimizer,lr", [("sgd", 0.1), ("adamw", 0.05)])
    def test_quadratic_minimum(self, optimizer, lr):
        # minimize (x - 3)^2 from x = 0
        params = {"x": Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)}
        state = AdamWState()
        target = Tensor(np.array([-3.0], dtype=np.float32))
        for _ in range(1000):
            zero_gradients(params)
            diff = add(params["x"], target)
            tsum(mul(diff, diff)).backward()
            if optimizer == "sgd":
                sgd_step(params, lr)
            else:
                adamw_step(params, state, lr)
        assert abs(params["x"].data[0] - 3.0) < 1e-3


class TestClip:
    def test_norm_bounded_after_clip(self):
        rng = np.random.default_rng(0)
        params = {f"p{i}": Tensor(np.zeros(10, dtype=np.float32), requires_grad=True)
                  for i in range(3)}
        for p in params.values():
            p.grad = rng.standard_normal(10).astype(np.float32) * 5.0
        pre = clip_gradients(params, 1.0)
        assert pre > 1.0
        post = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values()))
        assert post <= 1.0 + 1e-6

    def test_small_gradients_untouched(self):
        params = one_param(1.0, 0.01)
        clip_gradients(params, 1.0)
        assert np.allclose(params["p"].grad, [0.01])


class TestPerplexity:
    def test_zero_loss(self):
        assert perplexity(0.0) == 1.0

    def test_log_ten(self):
        assert abs(perplexity(math.log(10.0)) - 10.0) < 1e-9

    def test_uniform_over_v(self):
        assert abs(perplexity(math.log(100.0)) - 100.0) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(TrainError):
            perplexity(-0.1)


@pytest.fixture(scope="module")
def lm_setup():
    arts = make_regular_articles(16)
    vocab = build_vocab(arts)
    cfg = ModelConfig.desk_scale(vocab_size=vocab.size, dropout_rate=0.0)
    return arts, vocab, cfg


class TestLmTraining:
    def test_uniform_baseline_perplexity_is_vocab_size(self, lm_setup):
        arts, vocab, cfg = lm_setup
        params = init_params(cfg, seed=0)  # zero head -> uniform predictor
        samples = lm_samples_from_articles(arts, vocab, max_len=32, styled=False)
        _, ppl = evaluate_lm(params, cfg, samples, None)
        assert abs(ppl - vocab.size) / vocab.size < 0.01

    def test_pad_doubling_leaves_loss_unchanged(self, lm_setup):
        _, vocab, cfg = lm_setup
        params = init_params(cfg, seed=1, zero_head=False)
        # short enough that no truncation happens at either line length
        arts = make_regular_articles(4, title_words=1, sub_words=1, body_words=1)
        short = lm_samples_from_articles(arts, vocab, max_len=32, styled=False)
        long = lm_samples_from_articles(arts, vocab, max_len=64, styled=False)
        assert [s.ids[:20] for s in short] == [s.ids[:20] for s in long]
        loss_short, _ = evaluate_lm(params, cfg, short, None)
        loss_long, _ = evaluate_lm(params, cfg, long, None)
        assert abs(loss_short - loss_long) < 1e-6

    def test_loss_decreases_over_first_epochs(self, lm_setup):
        arts, vocab, cfg = lm_setup
        params = init_params(cfg, seed=2)
        samples = lm_samples_from_articles(arts, vocab, max_len=32, styled=False)
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3, seed=0,
                         weight_decay=0.0, early_stop_patience=None)
        _, log = train_lm(samples, params, cfg, tc)
        losses = log.series("train", "loss")
        assert len(losses) == 3
        # strictly decreasing, one plateau tolerated
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a + 1e-9)
        assert drops >= 1 and losses[-1] < losses[0]

    def test_best_checkpoint_and_metrics_shape(self, lm_setup):
        arts, vocab, cfg = lm_setup
        params = init_params(cfg, seed=3)
        samples = lm_samples_from_articles(arts, vocab, max_len=32, styled=False)
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=1,
                         early_stop_patience=None)
        best, log = train_lm(samples, params, cfg, tc)
        assert set(best) == set(params)
        assert log.series("val", "perplexity")
        for loss, ppl in zip(log.series("val", "loss"), log.series("val", "perplexity")):
            assert abs(ppl - math.exp(loss)) < 1e-9

    def test_reproducible_metrics(self, lm_setup):
        arts, vocab, cfg = lm_setup
        samples = lm_samples_from_articles(arts, vocab, max_len=32, styled=False)
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=7,
                         early_stop_patience=None)
        logs = []
        for _ in range(2):
            params = init_params(cfg, seed=4)
            _, log = train_lm(samples, params, cfg, tc)
            logs.append([r for r in log.rows if r[2] != "wall_time"])
        assert logs[0] == logs[1]

    def test_empty_corpus_rejected(self, lm_setup):
        _, _, cfg = lm_setup
        with pytest.raises(TrainError):
            train_lm([], init_params(cfg, seed=0), cfg, TrainConfig())

    def test_style_param_gradients_match_finite_differences(self):
        from stylecast.tensor import grad_check

        arts = make_regular_articles(8)
        vocab = build_vocab(arts)
        cfg = ModelConfig.desk_scale(vocab_size=vocab.size, style_mode="learned10",
                                     dropout_rate=0.0)
        stats = corpus_stats(arts, 4)
        samples = lm_samples_from_articles(arts, vocab, max_len=24, styled=True)[:4]
        params = init_params(cfg, seed=6, zero_head=False)
        names = list(params)
        arrays = [params[n].data for n in names]

        def f(leaves):
            p = dict(zip(names, leaves))
            return lm_batch_loss(p, cfg, samples, stats)

        style_coords = [(names.index(n), i)
                        for n in ("style.w1", "style.w2", "style.b2")
                        for i in range(0, params[n].data.size, 17)]
        report = grad_check(f, arrays, style_coords, h=1e-3, tol=1e-2)
        assert report["passed"], report
        # on a style-correlated batch the style pathway carries real gradient
        loss = lm_batch_loss(params, cfg, samples, stats, train=True)
        zero_gradients(params)
        loss.backward()
        assert np.any(params["style.w1"].grad != 0.0)
        assert np.any(params["style.w2"].grad != 0.0)

    def test_styled_training_runs_and_improves(self):
        arts = make_regular_articles(16)
        vocab = build_vocab(arts)
        cfg = ModelConfig.desk_scale(vocab_size=vocab.size, style_mode="learned10",
                                     dropout_rate=0.0)
        stats = corpus_stats(arts, 4)
        samples = lm_samples_from_articles(arts, vocab, max_len=32, styled=True)
        params = init_params(cfg, seed=5)
        tc = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3, seed=0,
                         weight_decay=0.0, early_stop_patience=None)
        _, log = train_lm(samples, params, cfg, tc, stats)
        losses = log.series("train", "loss")
        assert losses[-1] < losses[0]


class TestClassifierTraining:
    def test_separable_corpus_reaches_high_accuracy(self):
        arts = make_articles(120)
        vocab = build_vocab(arts)
        cfg = ModelConfig.desk_scale(vocab_size=vocab.size, head_type="classifier",
                                     max_seq=16, dropout_rate=0.0)
        samples = clf_samples_from_articles(arts, vocab, max_len=16)
        params = init_params(cfg, seed=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3, seed=0,
                         weight_decay=0.0, early_stop_patience=None)
        best, log = fine_tune_classifier(samples, params, cfg, tc)
        _, val = split_shuffled(samples, tc.split_ratio, tc.seed)
        acc, confusion = evaluate_accuracy(best, cfg, val)
        assert acc >= 0.9
        assert confusion.sum() == len(val)
        # accuracy is exactly the diagonal mass; all-correct means diagonal matrix
        assert abs(np.trace(confusion) / len(val) - acc) < 1e-12
        if acc == 1.0:
            assert np.all(confusion == np.diag(np.diag(confusion)))

    def test_single_class_rejected(self):
        arts = [a for a in make_articles(12) if a.label == 0]
        vocab = build_vocab(arts)
        cfg = ModelConfig.desk_scale(vocab_size=vocab.size, head_type="classifier")
        samples = clf_samples_from_articles(arts, vocab, max_len=TITLE_LEN)
        with pytest.raises(TrainError):
            fine_tune_classifier(samples, init_params(cfg, seed=0), cfg, TrainConfig())

    def test_confusion_row_sums_match_class_counts(self):
        arts = make_articles(40)
        vocab = build_vocab(arts)
        cfg = ModelConfig.desk_scale(vocab_size=vocab.size, head_type="classifier",
                                     max_seq=16)
        samples = clf_samples_from_articles(arts, vocab, max_len=16)
        params = init_params(cfg, seed=1, zero_head=False)
        _, confusion = evaluate_accuracy(params, cfg, samples)
        for label in range(4):
            assert confusion[label].sum() == sum(1 for s in samples if s.label == label)

    def test_empty_eval_rejected(self):
        cfg = ModelConfig.desk_scale(vocab_size=10, head_type="classifier")
        with pytest.raises(TrainError):
            evaluate_accuracy(init_params(cfg, seed=0), cfg, [])


@pytest.fixture(scope="module")
def loop_setup():
    arts = make_regular_articles(16, title_words=1, sub_words=1, body_words=2)
    vocab = build_vocab(arts)
    lm_cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=24,
                         vocab_size=vocab.size, n_sections=4, dropout_rate=0.0)
    clf_cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=12,
                          vocab_size=vocab.size, n_sections=4, head_type="classifier",
                          dropout_rate=0.0)
    lm = lm_samples_from_articles(arts, vocab, max_len=24, styled=False)
    clf = clf_samples_from_articles(arts, vocab, max_len=12)
    return lm_cfg, lm, clf_cfg, clf


def _scripted(monkeypatch, name, scores, wrap):
    """Replace train.<name> with a fake returning scores in turn; record params per call."""
    import stylecast.train as train_mod

    seen = []

    def fake(params, config, samples, *rest):
        seen.append({k: v.data.copy() for k, v in params.items()})
        return wrap(scores[len(seen) - 1])

    monkeypatch.setattr(train_mod, name, fake)
    return seen


def _same(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _arrays(params):
    return {k: v.data for k, v in params.items()}


class TestEpochLoop:
    """Early stop, best snapshot, max_steps and frozen backbone, for both trainers."""

    def test_lm_stops_after_patience_and_keeps_best(self, loop_setup, monkeypatch):
        cfg, samples, _, _ = loop_setup
        seen = _scripted(monkeypatch, "evaluate_lm", [2.0, 1.0, 1.5, 1.0, 1.2, 0.5],
                         lambda v: (v, math.exp(v)))
        tc = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=6, seed=0,
                         early_stop_patience=3)
        best, log = train_lm(samples, init_params(cfg, seed=0), cfg, tc)
        # epoch 2 is best; epochs 3, 4 (a tie) and 5 do not improve: stop after 5
        assert len(seen) == 5
        assert sorted({r[0] for r in log.rows}) == [1, 2, 3, 4, 5]
        assert log.series("val", "loss") == [2.0, 1.0, 1.5, 1.0, 1.2]
        assert _same(_arrays(best), seen[1])
        assert not _same(seen[1], seen[4])

    def test_clf_stops_after_patience_and_keeps_best(self, loop_setup, monkeypatch):
        _, _, cfg, samples = loop_setup
        seen = _scripted(monkeypatch, "evaluate_accuracy", [0.25, 0.5, 0.25, 0.5, 0.75],
                         lambda v: (v, None))
        tc = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=5, seed=0,
                         early_stop_patience=2)
        best, log = fine_tune_classifier(samples, init_params(cfg, seed=0), cfg, tc)
        # epoch 2 is best; epochs 3 and 4 (a tie) do not improve: stop after 4
        assert len(seen) == 4
        assert sorted({r[0] for r in log.rows}) == [1, 2, 3, 4]
        assert log.series("val", "accuracy") == [0.25, 0.5, 0.25, 0.5]
        assert _same(_arrays(best), seen[1])
        assert not _same(seen[1], seen[3])

    def test_no_patience_runs_every_epoch(self, loop_setup, monkeypatch):
        cfg, samples, _, _ = loop_setup
        seen = _scripted(monkeypatch, "evaluate_lm", [1.0, 2.0, 3.0, 4.0],
                         lambda v: (v, math.exp(v)))
        tc = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=4, seed=0,
                         early_stop_patience=None)
        best, _ = train_lm(samples, init_params(cfg, seed=0), cfg, tc)
        assert len(seen) == 4
        assert _same(_arrays(best), seen[0])

    @pytest.mark.parametrize("max_steps,epochs", [(2, 1), (5, 2)])
    def test_lm_max_steps_stops_mid_epoch_and_validates(self, loop_setup, monkeypatch,
                                                        max_steps, epochs):
        import stylecast.train as train_mod

        cfg, samples, _, _ = loop_setup
        steps = []
        real = train_mod.lm_batch_loss

        def counting(params, config, batch, stats, train=False, rng=None):
            steps.append(len(batch))
            return real(params, config, batch, stats, train=train, rng=rng)

        monkeypatch.setattr(train_mod, "lm_batch_loss", counting)
        # 14 training samples in batches of 4: 4 steps per epoch
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=5, seed=0,
                         early_stop_patience=None)
        _, log = train_lm(samples, init_params(cfg, seed=0), cfg, tc, max_steps=max_steps)
        assert len(steps) == max_steps
        assert len(log.series("val", "loss")) == epochs
        assert len(log.series("train", "loss")) == epochs

    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_frozen_backbone_moves_only_the_head(self, loop_setup, optimizer):
        _, _, cfg, samples = loop_setup
        params = init_params(cfg, seed=0)
        before = {k: v.data.copy() for k, v in params.items()}
        tc = TrainConfig(optimizer=optimizer, learning_rate=1e-1, batch_size=4,
                         epochs=2, seed=0, early_stop_patience=None)
        best, _ = fine_tune_classifier(samples, params, cfg, tc, freeze_backbone=True)
        for name in params:
            head = name.startswith("head.")
            assert np.array_equal(best[name].data, before[name]) != head, name
            assert np.array_equal(params[name].data, before[name]) != head, name

    def test_frozen_backbone_loss_graph_holds_only_the_head(self, loop_setup, monkeypatch):
        import stylecast.train as train_mod

        _, _, cfg, samples = loop_setup
        params = init_params(cfg, seed=0)
        head = {id(params["head.w"]), id(params["head.b"])}
        graphs = []
        real = train_mod.clf_batch_loss

        def recording(*args, **kwargs):
            loss = real(*args, **kwargs)
            ops, leaves, stack, seen = set(), set(), [loss], set()
            while stack:
                t = stack.pop()
                if id(t) not in seen:
                    seen.add(id(t))
                    ops.add(t._op)
                    leaves |= {id(t)} if t.requires_grad else set()
                    stack.extend(t._parents)
            graphs.append((ops, leaves))
            return loss

        monkeypatch.setattr(train_mod, "clf_batch_loss", recording)
        tc = TrainConfig(learning_rate=1e-1, batch_size=4, epochs=1, seed=0,
                         early_stop_patience=None)
        fine_tune_classifier(samples, params, cfg, tc, freeze_backbone=True)
        assert graphs
        for ops, leaves in graphs:
            assert ops == {"cross_entropy", "add", "matmul", ""} and leaves == head

    def test_frozen_backbone_head_gradients_equal_the_full_graph(self, loop_setup):
        _, _, cfg, samples = loop_setup
        params = init_params(cfg, seed=1, zero_head=False)
        cfg = ModelConfig(**{**asdict(cfg), "dropout_rate": 0.2})
        head = {k: v for k, v in params.items() if k.startswith("head.")}
        grads = []
        for view in (params, {k: v if k in head else Tensor(v.data) for k, v in params.items()}):
            zero_gradients(params)
            clf_batch_loss(view, cfg, samples[:6], train=True,
                           rng=np.random.default_rng(3)).backward()
            grads.append({k: v.grad for k, v in head.items()})
        for k in head:
            assert np.array_equal(grads[0][k], grads[1][k]), k


class TestOnlyTheTrainerMakesLeaves:
    """Loaded, converted and best params are constants, and the trainers still train them."""

    @pytest.fixture
    def lm_ckpt(self, loop_setup, tmp_path):
        cfg = loop_setup[0]
        path = tmp_path / "lm.ckpt"
        save_checkpoint(init_params(cfg, seed=2, zero_head=False), cfg, path)
        return path

    @pytest.mark.parametrize("freeze", [False, True])
    def test_converted_checkpoint_fine_tunes(self, loop_setup, lm_ckpt, freeze):
        _, _, clf_cfg, samples = loop_setup
        ck = load_checkpoint(lm_ckpt)
        params, cfg = convert_to_classifier(ck.params, ck.config, 4, clf_cfg.max_seq)
        assert not any(t.requires_grad for t in params.values())
        before = {k: v.data.copy() for k, v in params.items()}
        tc = TrainConfig(learning_rate=1e-1, batch_size=4, epochs=2, seed=0,
                         early_stop_patience=None)
        fine_tune_classifier(samples, params, cfg, tc, freeze_backbone=freeze)
        for name in params:
            moved = not np.array_equal(params[name].data, before[name])
            assert moved == (name.startswith("head.") or not freeze), name

    def test_train_lm_trains_a_loaded_checkpoint(self, loop_setup, lm_ckpt):
        _, samples, _, _ = loop_setup
        ck = load_checkpoint(lm_ckpt)
        before = {k: v.data.copy() for k, v in ck.params.items()}
        tc = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=1, seed=0)
        best, log = train_lm(samples, ck.params, ck.config, tc)
        assert all(math.isfinite(v) for v in log.series("val", "loss"))
        for name, data in before.items():
            assert not np.array_equal(ck.params[name].data, data), name
            assert np.array_equal(best[name].data, ck.params[name].data), name

    def test_best_params_are_constants(self, loop_setup):
        lm_cfg, lm, clf_cfg, clf = loop_setup
        tc = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=1, seed=0)
        for best, _ in (train_lm(lm, init_params(lm_cfg), lm_cfg, tc),
                        fine_tune_classifier(clf, init_params(clf_cfg), clf_cfg, tc)):
            for name, t in best.items():
                assert not t.requires_grad and t._parents == (), name

import json
import re
from pathlib import Path

import pytest

from stylecast.checkpoint import load_checkpoint, save_checkpoint
from stylecast.cli import dispatch
from stylecast.text import Vocab
from tests.conftest import make_regular_articles, rewrite_header

TINY = {
    "n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32, "max_seq": 24,
    "title_len": 14, "n_sections": 4, "style_mode": "minmax2", "dropout": 0.0,
    "epochs": 1, "batch_size": 8, "learning_rate": 1e-3, "seed": 0,
    "knn": 3, "layout_epochs": 20,
    "section_names": ["alpha", "beta", "gamma", "delta"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    arts = make_regular_articles(24, title_words=1, sub_words=1, body_words=2)
    rows = [dict(main_title=a.main_title, sub_title=a.sub_title, body=a.body,
                 label=a.label, author=a.author, release_time=a.release_time,
                 tags=a.tags) for a in arts]
    corpus.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    cfg = dict(TINY)
    cfg.update(corpus=str(corpus), vocab=str(root / "vocab.tsv"),
               out_dir=str(root / "out"))
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return root, cfg_path


class TestUsageErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_exit_1(self, capsys):
        assert dispatch(["ingest"]) == 1

    def test_no_subcommand_exit_1(self):
        assert dispatch([]) == 1

    def test_bad_set_flag_exit_1(self, workdir):
        _, cfg = workdir
        assert dispatch(["ingest", "--config", str(cfg), "--set", "noequals"]) == 1


class TestDataErrors:
    def test_missing_config_file_exit_2(self, capsys):
        assert dispatch(["ingest", "--config", "/nonexistent/run.json"]) == 2
        assert "/nonexistent/run.json" in capsys.readouterr().err

    def test_invalid_config_value_exit_2(self, workdir, capsys):
        _, cfg = workdir
        assert dispatch(["ingest", "--config", str(cfg), "--set", "split_ratio=1.5"]) == 2
        assert "split_ratio" in capsys.readouterr().err

    def test_generate_before_training_exit_2(self, tmp_path, workdir, capsys):
        _, cfg = workdir
        code = dispatch(["generate", "--config", str(cfg), "--prompt", "ab",
                         "--set", f"checkpoint={tmp_path / 'void.ckpt'}"])
        assert code == 2

    def test_internal_failure_exit_3(self, workdir, monkeypatch, capsys):
        _, cfg = workdir
        import stylecast.cli as cli_mod

        def boom(args):
            raise RuntimeError("synthetic crash")

        monkeypatch.setitem(cli_mod._COMMANDS, "ingest", boom)
        assert dispatch(["ingest", "--config", str(cfg)]) == 3
        assert "synthetic crash" in capsys.readouterr().err


    def test_malformed_vocab_exit_2(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        bad = tmp_path / "bad-vocab.tsv"
        bad.write_text("6\t61\n6\t62\n", encoding="utf-8")
        # eval reads the vocab before the checkpoint
        code = dispatch(["eval", "--config", str(cfg),
                         "--set", f"checkpoint={bad}", "--set", f"vocab={bad}"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_sampling_flag_exit_2(self, workdir, capsys):
        _, cfg = workdir
        assert dispatch(["generate", "--config", str(cfg), "--prompt", "ab",
                         "--temperature", "0"]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_ingest_skips_malformed_lines(self, workdir, tmp_path, capsys):
        root, cfg = workdir
        good = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(good[0])
        bad = [json.dumps({**row, "release_time": "soon"}),
               json.dumps({**row, "release_time": None}),
               "5",
               json.dumps({**row, "tags": 5})]
        corpus = tmp_path / "mixed.jsonl"
        corpus.write_text("\n".join(good[:4] + bad), encoding="utf-8")
        code = dispatch(["ingest", "--config", str(cfg), "--set", f"corpus={corpus}",
                         "--set", f"vocab={tmp_path / 'vocab.tsv'}"])
        assert code == 0
        captured = capsys.readouterr()
        assert "articles: 4" in captured.out
        for n in (5, 6, 7, 8):
            assert f"skipped: line {n}:" in captured.err


class TestPipeline:
    def test_01_ingest(self, workdir, capsys):
        root, cfg = workdir
        assert dispatch(["ingest", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "articles: 24" in out
        assert (root / "vocab.tsv").exists()

    def test_02_train_gen(self, workdir, capsys):
        root, cfg = workdir
        assert dispatch(["train-gen", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert (root / "out" / "lm.ckpt").exists()
        metrics = (root / "out" / "train-gen-metrics.csv").read_text()
        assert metrics.startswith("# config=")
        assert "epoch,split,metric,value" in metrics
        assert "val_perplexity=" in out

    def test_03_generate(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["generate", "--config", str(cfg), "--prompt", "ab",
                         "--section", "alpha", "--time", "2005-06-01T00:00:00Z",
                         "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}",
                         "--set", "sample_seed=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("ab")

    def test_04_generate_section_by_id(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["generate", "--config", str(cfg), "--prompt", "m",
                         "--section", "3",
                         "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}"])
        assert code == 0

    def test_04b_generate_policy_flags(self, workdir, capsys):
        root, cfg = workdir
        argv = ["generate", "--config", str(cfg), "--prompt", "ab", "--section", "0",
                "--mode", "greedy", "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == first  # greedy decode is reproducible
        code = dispatch(["generate", "--config", str(cfg), "--prompt", "ab",
                         "--section", "0", "--mode", "top_k", "--top-k", "2",
                         "--seed", "5", "--temperature", "0.5",
                         "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}"])
        assert code == 0

    def test_05_train_clf(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["train-clf", "--config", str(cfg),
                         "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}"])
        assert code == 0
        assert (root / "out" / "clf.ckpt").exists()
        assert (root / "out" / "train-clf-metrics.csv").exists()
        assert "val_accuracy=" in capsys.readouterr().out

    def test_06_classify(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["classify", "--config", str(cfg), "--title", "abba",
                         "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        pred, name = out.split("\t")
        assert name in TINY["section_names"]

    def test_07_lm_checkpoint_refused_for_classify(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["classify", "--config", str(cfg), "--title", "abba",
                         "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}"])
        assert code == 2
        assert "head" in capsys.readouterr().err

    def test_08_project_with_cast(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["project", "--config", str(cfg), "--cast", "abba adda",
                         "--cast", "dabba", "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}"])
        assert code == 0
        svg = (root / "out" / "scatter.svg").read_text()
        assert svg.count("<circle") >= 24
        assert 'fill="#000000"' in svg
        assert svg.count('r="3" fill="#000000"') == 2  # one overlay per phrase
        assert (root / "out" / "latents.bin").exists()

    def test_08b_project_reports_stage_times(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["project", "--config", str(cfg), "--limit", "20",
                         "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}"])
        assert code == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("projection:"))
        m = re.fullmatch(r"projection: n=(\d+) sym_edges=(\d+) "
                         r"knn_s=(\d+\.\d{3}) layout_s=(\d+\.\d{3})", line)
        assert m, line
        assert int(m.group(1)) == 20 and int(m.group(2)) >= 20 * 3 // 2

    def test_09_eval_lm(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["eval", "--config", str(cfg),
                         "--set", f"checkpoint={root / 'out' / 'lm.ckpt'}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "val_loss=" in out and "val_perplexity=" in out

    def test_10_eval_clf(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["eval", "--config", str(cfg),
                         "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "val_accuracy=" in out and "confusion:" in out

    def test_11_train_clf_init_from_lm(self, workdir, capsys):
        root, cfg = workdir
        code = dispatch(["train-clf", "--config", str(cfg),
                         "--set", "style_mode=none",
                         "--set", f"init_from={root / 'out' / 'unstyled.ckpt'}",
                         "--set", f"checkpoint={root / 'out' / 'clf2.ckpt'}"])
        # the unstyled lm checkpoint does not exist yet: data error
        assert code == 2
        assert dispatch(["train-gen", "--config", str(cfg),
                         "--set", "style_mode=none",
                         "--set", f"checkpoint={root / 'out' / 'unstyled.ckpt'}"]) == 0
        code = dispatch(["train-clf", "--config", str(cfg),
                         "--set", "style_mode=none",
                         "--set", f"init_from={root / 'out' / 'unstyled.ckpt'}",
                         "--set", f"checkpoint={root / 'out' / 'clf2.ckpt'}"])
        assert code == 0
        assert (root / "out" / "clf2.ckpt").exists()

    def test_12b_tampered_checkpoint_is_data_error(self, workdir, capsys):
        from stylecast.checkpoint import load_checkpoint, save_checkpoint

        root, cfg = workdir
        ck = load_checkpoint(root / "out" / "clf.ckpt")
        del ck.params["layer0.ln2.g"]
        tampered = root / "out" / "tampered.ckpt"
        save_checkpoint(ck.params, ck.config, tampered, ck.meta)
        code = dispatch(["classify", "--config", str(cfg), "--title", "abba",
                         "--set", f"checkpoint={tampered}"])
        assert code == 2
        assert "layer0.ln2.g" in capsys.readouterr().err

    def test_12_vocab_mismatch_is_data_error(self, workdir, capsys):
        root, cfg = workdir
        other = root / "other-vocab.tsv"
        other.write_text("6\t61\n7\t62\n", encoding="utf-8")
        code = dispatch(["classify", "--config", str(cfg), "--title", "abba",
                         "--set", f"checkpoint={root / 'out' / 'clf.ckpt'}",
                         "--set", f"vocab={other}"])
        assert code == 2
        assert "vocab" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An lm and a classifier trained with `vocab` unset, so it lives at out/vocab.tsv."""
    root = tmp_path_factory.mktemp("trained")
    arts = make_regular_articles(24, title_words=1, sub_words=1, body_words=2)
    (root / "corpus.jsonl").write_text("\n".join(json.dumps(vars(a)) for a in arts),
                                       encoding="utf-8")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps({**TINY, "corpus": str(root / "corpus.jsonl"),
                                    "out_dir": str(root / "out")}), encoding="utf-8")
    assert dispatch(["train-gen", "--config", str(cfg_path)]) == 0
    assert dispatch(["train-clf", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def run_cli(capsys, command, cfg, *argv, **sets):
    """Exit code, stdout and stderr of one command under `--set key=value` overrides."""
    capsys.readouterr()
    pairs = [f"{k}={v}" for k, v in sets.items()]
    code = dispatch([command, "--config", str(cfg), *argv,
                     *[a for pair in pairs for a in ("--set", pair)]])
    out, err = capsys.readouterr()
    return code, out, err


class TestOpenRun:
    """Every command that reopens a checkpoint finds and checks its vocab one way."""

    def test_vocab_found_in_out_dir(self, trained, capsys):
        root, cfg = trained
        assert (root / "out" / "vocab.tsv").exists()
        code, out, err = run_cli(capsys, "generate", cfg, "--prompt", "ab", "--section", "1",
                                 checkpoint=root / "out" / "lm.ckpt")
        assert code == 0, err
        assert out.startswith("ab")
        code, out, err = run_cli(capsys, "classify", cfg, "--title", "abba",
                                 checkpoint=root / "out" / "clf.ckpt")
        assert code == 0, err
        assert out.strip().split("\t")[1] in TINY["section_names"]

    @pytest.mark.parametrize("command", ["project", "eval"])
    def test_missing_vocab_is_data_error_and_not_rebuilt(self, trained, capsys, command):
        root, cfg = trained
        missing = root / f"{command}-vocab.tsv"
        code, _, err = run_cli(capsys, command, cfg, vocab=missing,
                               checkpoint=root / "out" / "clf.ckpt")
        assert code == 2
        assert str(missing) in err
        assert not missing.exists()

    def test_same_size_permuted_vocab_refused(self, trained, capsys):
        root, cfg = trained
        vocab = Vocab.load(root / "out" / "vocab.tsv")
        ids = sorted(vocab.id_to_char)
        chars = [vocab.id_to_char[i] for i in ids]
        chars = chars[1:] + chars[:1]
        permuted = Vocab(dict(zip(chars, ids)), dict(zip(ids, chars)))
        assert permuted.size == vocab.size
        permuted.save(root / "permuted.tsv")
        code, _, err = run_cli(capsys, "classify", cfg, "--title", "abba",
                               vocab=root / "permuted.tsv", checkpoint=root / "out" / "clf.ckpt")
        assert code == 2
        assert "vocab" in err and "permuted.tsv" in err

    def test_vocab_id_gap_is_data_error(self, trained, capsys):
        root, cfg = trained
        lines = (root / "out" / "vocab.tsv").read_text(encoding="utf-8").splitlines()
        first_char = lines[0].split("\t")[1]  # the first title's first character
        gapped = root / "gapped.tsv"
        gapped.write_text("\n".join(lines[1:] + [f"99\t{first_char}"]) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", cfg, vocab=gapped,
                               checkpoint=root / "out" / "lm.ckpt")
        assert code == 2
        assert str(gapped) in err

    @pytest.mark.parametrize("ckpt", ["lm.ckpt", "clf.ckpt"])
    def test_eval_splits_as_the_checkpoint_was_trained(self, trained, capsys, ckpt):
        root, cfg = trained
        path = root / "out" / ckpt
        code, plain, err = run_cli(capsys, "eval", cfg, checkpoint=path)
        assert code == 0, err
        code, reseeded, err = run_cli(capsys, "eval", cfg, checkpoint=path, seed=5,
                                      split_ratio=0.5)
        assert code == 0, err
        assert reseeded == plain

    @pytest.mark.parametrize("ckpt", ["lm.ckpt", "clf.ckpt"])
    def test_checkpoint_without_run_records_still_opens(self, trained, capsys, ckpt):
        root, cfg = trained
        old = load_checkpoint(root / "out" / ckpt)
        for key in ("vocab_sha256", "split_ratio", "split_seed"):
            del old.meta[key]
        path = root / f"old-{ckpt}"
        save_checkpoint(old.params, old.config, path, old.meta)
        code, before, err = run_cli(capsys, "eval", cfg, checkpoint=root / "out" / ckpt)
        assert code == 0, err
        code, after, err = run_cli(capsys, "eval", cfg, checkpoint=path)
        assert code == 0, err
        assert after == before  # the config's seed and ratio are the ones it trained with

    def test_unreadable_checkpoint_header_exit_2(self, trained, capsys):
        root, cfg = trained
        blob = (root / "out" / "clf.ckpt").read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        bad = root / "bad-header.ckpt"
        bad.write_bytes(blob[:8] + (9).to_bytes(4, "little") + b"{not json" + blob[12 + n:])
        code, _, err = run_cli(capsys, "classify", cfg, "--title", "abba", checkpoint=bad,
                               vocab=root / "out" / "vocab.tsv")
        assert code == 2
        assert "header" in err

    def test_bad_time_exit_2(self, trained, capsys):
        root, cfg = trained
        code, _, err = run_cli(capsys, "generate", cfg, "--prompt", "ab", "--time", "yesterday",
                               checkpoint=root / "out" / "lm.ckpt",
                               vocab=root / "out" / "vocab.tsv")
        assert code == 2
        assert "--time" in err

    @pytest.mark.parametrize("limit", ["-5", "0"])
    def test_limit_below_one_exit_2(self, trained, capsys, limit):
        root, cfg = trained
        code, _, err = run_cli(capsys, "project", cfg, "--limit", limit,
                               checkpoint=root / "out" / "clf.ckpt")
        assert code == 2
        assert "--limit" in err

    @pytest.mark.parametrize("command", ["train-gen", "eval"])
    def test_one_article_corpus_exit_2(self, trained, capsys, tmp_path, command):
        root, cfg = trained
        one = tmp_path / "one.jsonl"
        one.write_text((root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0],
                       encoding="utf-8")
        sets = ({"out_dir": tmp_path / "out"} if command == "train-gen"
                else {"checkpoint": root / "out" / "lm.ckpt", "vocab": root / "out" / "vocab.tsv"})
        code, _, err = run_cli(capsys, command, cfg, corpus=one, **sets)
        assert code == 2
        assert "cannot split 1 item(s)" in err

    @pytest.mark.parametrize("command", ["train-gen", "train-clf", "eval"])
    def test_two_article_corpus_exit_2_before_training(self, trained, capsys, tmp_path,
                                                       monkeypatch, command):
        import stylecast.train as train_mod

        root, cfg = trained
        two = tmp_path / "two.jsonl"
        lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        two.write_text("\n".join(lines), encoding="utf-8")
        steps = []
        monkeypatch.setattr(train_mod, "_optimizer_step", lambda *a: steps.append(a))
        sets = ({"out_dir": tmp_path / "out"} if command != "eval"
                else {"checkpoint": root / "out" / "lm.ckpt", "vocab": root / "out" / "vocab.tsv"})
        code, _, err = run_cli(capsys, command, cfg, corpus=two, **sets)
        assert code == 2
        assert "cannot split 2 item(s) at ratio 0.9: the validation split would be empty" in err
        assert steps == []
        assert not list(tmp_path.glob("out/*.ckpt"))


@pytest.fixture(scope="module")
def more_lms(trained):
    """`trained`, plus an unstyled lm at out/none.ckpt and a learned10 lm at out/learned10.ckpt."""
    root, cfg = trained
    for mode in ("none", "learned10"):
        assert dispatch(["train-gen", "--config", str(cfg), "--set", f"style_mode={mode}",
                         "--set", f"checkpoint={root / 'out' / f'{mode}.ckpt'}"]) == 0
    return root, cfg


class TestRunRecords:
    """A run record of the wrong type or range is a data error naming it, never a crash."""

    @pytest.mark.parametrize("key, value, command", [
        ("t_min", "abc", "generate"), ("t_min", "abc", "eval"), ("t_max", 1.5, "generate"),
        ("section_names", 5, "generate"), ("section_names", [1], "generate"),
        ("split_ratio", "x", "eval"), ("split_ratio", 7, "eval"), ("split_ratio", True, "eval"),
        ("split_seed", "0", "eval"), ("vocab_sha256", 5, "eval"),
    ])
    def test_mistyped_meta_exit_2(self, trained, capsys, tmp_path, key, value, command):
        root, cfg = trained
        bad = rewrite_header(root / "out" / "lm.ckpt", tmp_path / "bad.ckpt", meta={key: value})
        argv = ["--prompt", "ab", "--section", "1"] if command == "generate" else []
        code, _, err = run_cli(capsys, command, cfg, *argv, checkpoint=bad)
        assert code == 2, err
        assert f"meta {key!r}" in err and str(bad) in err

    @pytest.mark.parametrize("rate", ["x", 5.0])
    def test_init_from_bad_dropout_rate_exit_2(self, more_lms, capsys, tmp_path, rate):
        root, cfg = more_lms
        bad = rewrite_header(root / "out" / "none.ckpt", tmp_path / "bad.ckpt",
                             model={"dropout_rate": rate})
        code, _, err = run_cli(capsys, "train-clf", cfg, init_from=bad, out_dir=tmp_path / "out")
        assert code == 2, err
        assert "dropout_rate" in err

    @pytest.mark.parametrize("ckpt", ["lm.ckpt", "learned10.ckpt"])
    def test_generate_section_outside_the_model_exit_2(self, more_lms, capsys, tmp_path, ckpt):
        """Six names in meta do not give a four-section model a fifth or sixth style."""
        root, cfg = more_lms
        names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        bad = rewrite_header(root / "out" / ckpt, tmp_path / "six.ckpt",
                             meta={"section_names": names})
        for section in ("5", "zeta", "4", "-1"):
            code, out, err = run_cli(capsys, "generate", cfg, "--prompt", "ab",
                                     "--section", section, checkpoint=bad)
            assert code == 2, (section, code, err)
            assert "[0, 4)" in err and out == ""
        code, out, err = run_cli(capsys, "generate", cfg, "--prompt", "ab", "--section", "delta",
                                 checkpoint=bad)
        assert code == 0, err

    @pytest.mark.parametrize("ckpt", ["clf.ckpt", "learned10.ckpt"])
    def test_eval_reads_labels_against_the_checkpoint(self, more_lms, capsys, tmp_path, ckpt):
        root, cfg = more_lms
        rows = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        wide = [json.dumps({**json.loads(r), "label": 4 + i % 2}) for i, r in enumerate(rows)]
        corpus = tmp_path / "wide.jsonl"
        corpus.write_text("\n".join(wide), encoding="utf-8")
        sets = dict(checkpoint=root / "out" / ckpt, corpus=corpus, n_sections=6,
                    section_names="null")
        code, _, err = run_cli(capsys, "eval", cfg, **sets)
        assert code == 2, err
        assert "label 4 out of range [0, 4)" in err and "label 5 out of range [0, 4)" in err
        corpus.write_text("\n".join(rows + wide), encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", cfg, **sets)
        assert code == 0, err
        assert "label 4 out of range [0, 4)" in err and out.startswith("val_")


def test_readme_config_in_a_fresh_directory(tmp_path, monkeypatch, capsys):
    """The README's relative paths work before out/ (or a checkpoint directory) exists."""
    monkeypatch.chdir(tmp_path)
    arts = make_regular_articles(24, title_words=1, sub_words=1, body_words=2)
    Path("corpus.jsonl").write_text("\n".join(json.dumps(vars(a)) for a in arts),
                                    encoding="utf-8")
    Path("run.json").write_text(json.dumps({**TINY, "corpus": "corpus.jsonl",
                                            "vocab": "out/vocab.tsv", "out_dir": "out"}),
                                encoding="utf-8")
    assert dispatch(["ingest", "--config", "run.json"]) == 0
    assert Path("out/vocab.tsv").exists()
    assert dispatch(["train-gen", "--config", "run.json"]) == 0
    assert Path("out/lm.ckpt").exists()
    assert dispatch(["train-clf", "--config", "run.json",
                     "--set", "checkpoint=runs/a/clf.ckpt"]) == 0
    assert Path("runs/a/clf.ckpt").exists()

import hashlib
import json
import random
import re

import pytest

from stylecast.text import (
    Article, CorpusError, EOS, PAD, SEP1, SEP2, SOS, UNK, Vocab, build_vocab,
    decode, encode, encode_title, format_article, load_jsonl, split_shuffled,
)
from tests.conftest import make_articles


def article(title="ab", sub="c", body="de", label=0):
    return Article(main_title=title, sub_title=sub, body=body, label=label,
                   author="x", release_time=1_000_000_000, tags=[])


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")


def valid_row(**kw):
    row = {"main_title": "t", "sub_title": "s", "body": "b", "label": 0,
           "author": "a", "release_time": 123, "tags": ["x"]}
    row.update(kw)
    return row


class TestLoadJsonl:
    def test_three_valid_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [valid_row(main_title=f"t{i}") for i in range(3)])
        articles, report = load_jsonl(p)
        assert len(articles) == 3 and report == []
        assert [a.main_title for a in articles] == ["t0", "t1", "t2"]

    def test_missing_field_reported_with_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        rows = [valid_row(), {k: v for k, v in valid_row().items() if k != "main_title"}]
        write_jsonl(p, rows)
        articles, report = load_jsonl(p)
        assert len(articles) == 1
        assert len(report) == 1 and "line 2" in report[0] and "main_title" in report[0]

    def test_label_out_of_range_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [valid_row(label=7), valid_row()])
        articles, report = load_jsonl(p, n_sections=4)
        assert len(articles) == 1
        assert "label 7" in report[0]

    def test_boolean_label_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [valid_row(label=True), valid_row()])
        articles, report = load_jsonl(p)
        assert len(articles) == 1 and "label" in report[0]

    def test_tags_optional(self, tmp_path):
        p = tmp_path / "c.jsonl"
        row = valid_row()
        del row["tags"]
        write_jsonl(p, [row])
        articles, report = load_jsonl(p)
        assert articles[0].tags == [] and report == []

    def test_malformed_values_skipped_with_line_numbers(self, tmp_path):
        p = tmp_path / "c.jsonl"
        lines = [json.dumps(valid_row(release_time="soon")),
                 json.dumps(valid_row(release_time=None)),
                 "5",
                 json.dumps(valid_row(tags=5)),
                 json.dumps(valid_row(main_title="kept")),
                 "[1, 2]"]
        p.write_text("\n".join(lines), encoding="utf-8")
        articles, report = load_jsonl(p)
        assert [a.main_title for a in articles] == ["kept"]
        assert [r.split(":")[0] for r in report] == [
            "line 1", "line 2", "line 3", "line 4", "line 6"]
        assert "release_time" in report[0] and "release_time" in report[1]
        assert "object" in report[2] and "tags" in report[3]

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            load_jsonl(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e",
                                     "\x0b", "\x0c"])
    def test_only_newline_and_carriage_return_end_a_line(self, tmp_path, sep):
        p = tmp_path / "c.jsonl"
        lines = [json.dumps(valid_row(main_title=f"a{sep}b"), ensure_ascii=False),
                 f"{{broken{sep}x", json.dumps(valid_row(main_title="c"))]
        p.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r" + lines[1].encode())
        articles, report = load_jsonl(p)
        assert [a.main_title for a in articles] == [f"a{sep}b", "c"]
        assert [r.split(":")[0] for r in report] == ["line 2", "line 4"]

    def test_non_utf8_line_skipped_and_reported(self, tmp_path):
        p = tmp_path / "c.jsonl"
        good = json.dumps(valid_row(main_title="kept")).encode()
        p.write_bytes(b"\n".join([good, b'{"main_title": "\xff\xfe"}', good]))
        articles, report = load_jsonl(p)
        assert [a.main_title for a in articles] == ["kept", "kept"]
        assert report == ["line 2: not valid UTF-8"]

    @pytest.mark.parametrize("line", ["[" * 5000, '{"label": ' + "1" * 5000 + "}"],
                             ids=["deep nesting", "overlong int"])
    def test_json_the_parser_refuses_is_invalid_json(self, tmp_path, line):
        p = tmp_path / "c.jsonl"
        p.write_text(line + "\n" + json.dumps(valid_row()), encoding="utf-8")
        articles, report = load_jsonl(p)
        assert len(articles) == 1
        assert len(report) == 1 and report[0].startswith("line 1: invalid JSON")


class TestVocab:
    def test_first_occurrence_ids(self):
        v = build_vocab([article(title="ab", sub="", body="")])
        assert v.char_to_id == {"a": 6, "b": 7}

    def test_determinism(self):
        arts = make_articles(10)
        v1, v2 = build_vocab(arts), build_vocab(arts)
        assert v1.char_to_id == v2.char_to_id
        assert v1.id_to_char == v2.id_to_char

    def test_large_charset_size(self):
        chars = "".join(chr(0x4E00 + i) for i in range(5000))
        v = build_vocab([article(title=chars, sub="", body="")])
        assert v.size == 5006

    def test_no_ordinary_char_takes_special_id(self):
        v = build_vocab(make_articles(8))
        assert all(i >= 6 for i in v.char_to_id.values())

    def test_inverse_maps(self):
        v = build_vocab(make_articles(8))
        assert all(v.id_to_char[i] == c for c, i in v.char_to_id.items())

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab(make_articles(8))
        p = tmp_path / "vocab.tsv"
        v.save(p)
        loaded = Vocab.load(p)
        assert loaded.char_to_id == v.char_to_id

    def test_file_format_id_tab_hex(self, tmp_path):
        v = build_vocab([article(title="ab", sub="", body="")])
        p = tmp_path / "vocab.tsv"
        v.save(p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines == [f"6\t{ord('a'):x}", f"7\t{ord('b'):x}"]

    def test_reserved_id_in_file_rejected(self, tmp_path):
        p = tmp_path / "vocab.tsv"
        p.write_text("3\t61\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="reserved"):
            Vocab.load(p)

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            build_vocab([])


class TestFormat:
    def test_template(self):
        v = build_vocab([article()])
        ids = format_article(article(), v)
        a, b, c, d, e = (v.char_to_id[ch] for ch in "abcde")
        assert ids[:9] == [SOS, a, b, SEP1, c, SEP2, d, e, EOS]
        assert len(ids) == 512
        assert all(i == PAD for i in ids[9:])

    def test_long_body_truncated_eos_last(self):
        v = build_vocab([article(body="x" * 10_000)])
        ids = format_article(article(body="x" * 10_000), v)
        assert len(ids) == 512
        assert ids[-1] == EOS
        assert PAD not in ids

    def test_empty_sub_title(self):
        a = article(sub="")
        v = build_vocab([a])
        ids = format_article(a, v)
        sep1 = ids.index(SEP1)
        assert ids[sep1 + 1] == SEP2

    def test_exactly_one_sos_and_eos_property(self):
        arts = make_articles(30)
        v = build_vocab(arts)
        for a in arts:
            ids = format_article(a, v, max_len=64)
            assert len(ids) == 64
            assert ids.count(SOS) == 1 and ids.count(EOS) == 1


class TestVocabLoad:
    def test_round_trip(self, tmp_path):
        v = build_vocab(make_articles(10))
        v.save(tmp_path / "v.tsv")
        back = Vocab.load(tmp_path / "v.tsv")
        assert back.char_to_id == v.char_to_id and back.id_to_char == v.id_to_char

    @pytest.mark.parametrize("body", ["6 61\n", "6\tzz\n", "x\t61\n", "6\t61\t62\n",
                                      "6\t110000\n"])
    def test_unparsable_line_names_the_line(self, tmp_path, body):
        p = tmp_path / "v.tsv"
        p.write_text("7\t62\n" + body, encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            Vocab.load(p)

    @pytest.mark.parametrize("body", ["6\t61\n6\t62\n", "6\t61\n7\t61\n"])
    def test_repeated_id_or_character_rejected(self, tmp_path, body):
        p = tmp_path / "v.tsv"
        p.write_text(body, encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2.*repeats"):
            Vocab.load(p)

    def test_id_gap_rejected_naming_the_file(self, tmp_path):
        p = tmp_path / "v.tsv"
        lines = [f"{i}\t{0x41 + i:x}" for i in range(6, 28)] + ["99\t7a"]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(str(p)) + ".*6..28 without gaps"):
            Vocab.load(p)

    def test_non_utf8_file_is_corpus_error(self, tmp_path):
        p = tmp_path / "v.tsv"
        p.write_bytes(b"6\t61\n7\t\xff\n")
        with pytest.raises(CorpusError, match="not valid UTF-8"):
            Vocab.load(p)

    def test_sha256_is_the_hash_of_the_saved_file(self, tmp_path):
        v = build_vocab(make_articles(10))
        v.save(tmp_path / "v.tsv")
        assert v.sha256() == hashlib.sha256((tmp_path / "v.tsv").read_bytes()).hexdigest()
        assert Vocab.load(tmp_path / "v.tsv").sha256() == v.sha256()


class TestEncodeDecode:
    def test_unknown_char_maps_to_unk(self):
        v = build_vocab([article(title="ab", sub="", body="")])
        assert encode("aZ", v, 4) == [6, UNK]

    def test_truncation_to_title_budget(self):
        v = build_vocab([article(title="a" * 80, sub="", body="")])
        assert len(encode("a" * 80, v, 50)) == 50

    def test_round_trip(self):
        v = build_vocab([article(title="abc", sub="", body="")])
        assert decode(encode("abc", v, 10), v) == "abc"

    def test_round_trip_property_random_strings(self):
        arts = make_articles(20)
        v = build_vocab(arts)
        alphabet = list(v.char_to_id)
        rng = random.Random(42)
        for _ in range(1000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert decode(encode(s, v, 40), v) == s

    def test_specials_render_bracketed_pad_dropped(self):
        v = build_vocab([article(title="a", sub="", body="")])
        assert decode([SOS, 6, EOS, PAD, PAD], v) == "[SOS]a[EOS]"

    def test_out_of_range_id(self):
        v = build_vocab([article(title="a", sub="", body="")])
        with pytest.raises(IndexError):
            decode([v.size], v)

    def test_encode_title_wraps_and_pads(self):
        v = build_vocab([article(title="ab", sub="", body="")])
        ids = encode_title("ab", v, 6)
        assert ids == [SOS, 6, 7, EOS, PAD, PAD]
        long = encode_title("ab" * 60, v, 50)
        assert len(long) == 50 and long[0] == SOS and long[-1] == EOS


class TestSplit:
    def test_ninety_ten(self):
        train, val = split_shuffled(list(range(100)), 0.9, seed=1)
        assert len(train) == 90 and len(val) == 10

    def test_same_seed_identical(self):
        items = list(range(50))
        assert split_shuffled(items, 0.8, seed=5) == split_shuffled(items, 0.8, seed=5)

    def test_different_seeds_differ(self):
        items = list(range(100))
        t1, _ = split_shuffled(items, 0.9, seed=1)
        t2, _ = split_shuffled(items, 0.9, seed=2)
        assert t1 != t2

    def test_exact_partition(self):
        items = list(range(37))
        train, val = split_shuffled(items, 0.7, seed=3)
        assert sorted(train + val) == items
        assert not set(train) & set(val)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            split_shuffled(list(range(10)), 1.5)

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            split_shuffled([1], 0.9)

    @pytest.mark.parametrize("n,ratio,side", [(0, 0.5, "training"), (1, 0.9, "validation"),
                                              (1, 0.1, "training"), (2, 0.9, "validation"),
                                              (3, 0.1, "training"), (19, 0.98, "validation")])
    def test_empty_side_rejected_naming_it(self, n, ratio, side):
        with pytest.raises(CorpusError, match=f"cannot split {n} item.*{side} split"):
            split_shuffled(list(range(n)), ratio)

    @pytest.mark.parametrize("n,ratio", [(2, 0.5), (3, 0.6), (3, 0.2), (20, 0.95)])
    def test_smallest_splits_keep_both_sides(self, n, ratio):
        train, val = split_shuffled(list(range(n)), ratio)
        assert train and val and len(train) + len(val) == n

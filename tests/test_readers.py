"""Property tests of the three file readers: any bytes give a result or that reader's data error.

`load_jsonl` skips and reports bad lines and never raises for a readable
file; `Vocab.load` raises only CorpusError; `load_checkpoint` raises only
CheckpointError. Inputs mix raw bytes with fragments of valid files, so
the examples reach past the first check of each reader.
"""
import json
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stylecast.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint, save_checkpoint
from stylecast.model import ModelConfig, init_params, param_shapes
from stylecast.text import CorpusError, Vocab, load_jsonl

READER_SETTINGS = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])

ROW = {"main_title": "t", "sub_title": "s", "body": "b", "label": 0,
       "author": "a", "release_time": 123, "tags": ["x"]}
SEPARATORS = ["\n", "\r", "\r\n", "\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x0b"]

jsonl_pieces = st.one_of(
    st.binary(max_size=24),
    st.sampled_from([b"\n", b"\r", b"\r\n", b"\xff", b"\xc3", b"[" * 3000, b"{", b"}",
                     b'{"label": ' + b"9" * 5000 + b"}"]),
    st.sampled_from(SEPARATORS).map(lambda s: s.encode("utf-8")),
    st.builds(lambda title, label: json.dumps({**ROW, "main_title": title, "label": label},
                                              ensure_ascii=False).encode("utf-8"),
              st.text(max_size=8), st.integers(-1, 5)),
)


@READER_SETTINGS
@given(blob=st.lists(jsonl_pieces, max_size=10).map(b"".join))
def test_load_jsonl_reports_and_skips_any_bytes(tmp_path, blob):
    p = tmp_path / "c.jsonl"
    p.write_bytes(blob)
    articles, report = load_jsonl(p, n_sections=4)
    n_lines = len(blob.splitlines())
    assert len(articles) + len(report) <= n_lines
    for line in report:
        assert 1 <= int(line.split(":")[0].removeprefix("line ")) <= n_lines


@READER_SETTINGS
@given(titles=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6),
       ending=st.sampled_from(["\n", "\r", "\r\n"]))
def test_load_jsonl_keeps_every_valid_line(tmp_path, titles, ending):
    p = tmp_path / "c.jsonl"
    rows = [json.dumps({**ROW, "main_title": t}, ensure_ascii=False) for t in titles]
    p.write_bytes(ending.join(rows).encode("utf-8"))
    articles, report = load_jsonl(p)
    assert report == []
    assert [a.main_title for a in articles] == titles


vocab_pieces = st.one_of(
    st.binary(max_size=16),
    st.sampled_from([b"\n", b"\t", b"\xff", b"6\t61\n", b"7\t62\n", b"8\t", b"d800",
                     b"110000", b"-1", b"5\t41\n"]),
    st.builds(lambda i, cp: f"{i}\t{cp:x}\n".encode(), st.integers(0, 12),
              st.integers(0, 0x10FFFF)),
)


@READER_SETTINGS
@given(blob=st.lists(vocab_pieces, max_size=10).map(b"".join))
def test_vocab_load_gives_a_vocab_or_corpus_error(tmp_path, blob):
    p = tmp_path / "v.tsv"
    p.write_bytes(blob)
    try:
        vocab = Vocab.load(p)
    except CorpusError:
        return
    assert sorted(vocab.id_to_char) == list(range(6, vocab.size))


SMALL = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=8, max_seq=4, vocab_size=8,
                    n_sections=2)


def _valid_checkpoint(tmp_path) -> bytes:
    p = tmp_path / "valid.ckpt"
    save_checkpoint(init_params(SMALL, seed=0), SMALL, p, {"t_min": 0})
    return p.read_bytes()


def _header(model: dict, meta) -> bytes:
    raw = json.dumps({"model": model, "meta": meta}).encode("utf-8")
    return MAGIC + struct.pack("<II", VERSION, len(raw)) + raw


size = st.one_of(st.integers(-2, 9), st.sampled_from(["2", 1.5, None, True, [1]]))
models = st.fixed_dictionaries({
    **{k: size for k in ("n_layers", "n_heads", "d_model", "d_ff", "max_seq", "vocab_size",
                         "n_sections")},
    "style_mode": st.sampled_from(["none", "minmax2", "learned10", "x", 3]),
    "head_type": st.sampled_from(["lm", "classifier", "x"]),
    "dropout_rate": st.sampled_from([0.1, "x"]),
})


@st.composite
def checkpoint_bytes(draw, valid: bytes) -> bytes:
    kind = draw(st.sampled_from(["raw", "after magic", "mutated", "header"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    if kind == "after magic":
        return MAGIC + struct.pack("<I", VERSION) + draw(st.binary(max_size=64))
    n_header = 12 + int.from_bytes(valid[8:12], "little")
    if kind == "header":
        model = draw(models)
        meta = draw(st.sampled_from([{}, 5, [], {"t_min": 1}]))
        return _header(model, meta) + valid[n_header:]
    # Mutations skip the header text: "header" examples cover it, and a digit
    # turned into n_layers 10**8 would only make the examples slow.
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.one_of(st.integers(0, 11), st.integers(n_header, len(blob) - 1)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        blob[at:at + len(chunk)] = chunk
    return bytes(blob[:draw(st.integers(0, len(blob)))]) + draw(st.binary(max_size=24))


@READER_SETTINGS
@given(data=st.data())
def test_load_checkpoint_gives_a_checkpoint_or_checkpoint_error(tmp_path, data):
    blob = data.draw(checkpoint_bytes(_valid_checkpoint(tmp_path)))
    p = tmp_path / "m.ckpt"
    p.write_bytes(blob)
    try:
        ck = load_checkpoint(p)
    except CheckpointError:
        return
    assert list(ck.params) == list(param_shapes(ck.config))
    assert not any(t.requires_grad for t in ck.params.values())

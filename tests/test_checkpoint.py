import json
import re
import struct
import time

import numpy as np
import pytest

from stylecast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from stylecast.model import (
    ModelConfig, clf_forward, extract_latent, init_params, lm_forward, param_shapes,
)
from stylecast.tensor import Tensor
from tests.conftest import rewrite_header


def desk(head_type="lm"):
    return ModelConfig.desk_scale(vocab_size=20, head_type=head_type)


class TestRoundTrip:
    def test_bitwise_equal_tensors(self, tmp_path):
        cfg = desk()
        params = init_params(cfg, seed=1, zero_head=False)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, p, meta={"config_hash": "abc123"})
        assert p.read_bytes()[:4] == b"WYN1"
        ck = load_checkpoint(p)
        assert ck.config == cfg
        assert ck.meta == {"config_hash": "abc123"}
        assert list(ck.params) == list(params)
        for name in params:
            assert ck.params[name].data.tobytes() == params[name].data.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = desk()
        params = init_params(cfg, seed=2, zero_head=False)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, cfg, p1, meta={"t_min": 5, "t_max": 9})
        ck = load_checkpoint(p1)
        save_checkpoint(ck.params, ck.config, p2, meta=ck.meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float64_params_stored_as_float32(self, tmp_path):
        cfg = desk()
        params = init_params(cfg, seed=3, dtype=np.float64)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, p)
        ck = load_checkpoint(p)
        assert ck.params["tok_emb"].data.dtype == np.float32


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        cfg = desk()
        params = init_params(cfg, seed=4)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        cfg = desk()
        params = init_params(cfg, seed=5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    @pytest.mark.parametrize("kind", ["not json", "not utf-8", "not an object", "no model",
                                      "model lacks a key", "model has an unknown key",
                                      "meta not an object"])
    def test_unreadable_header(self, tmp_path, kind):
        cfg = desk()
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=6), cfg, p)
        blob = p.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + n])
        model = header["model"]
        new = {
            "not json": b"{not json",
            "not utf-8": b'{"model": "\xff"}',
            "not an object": b"[1, 2]",
            "no model": b'{"meta": {}}',
            "model lacks a key": json.dumps(
                {**header, "model": {k: v for k, v in model.items() if k != "n_heads"}}),
            "model has an unknown key": json.dumps({**header, "model": {**model, "n_experts": 2}}),
            "meta not an object": json.dumps({**header, "meta": 5}),
        }[kind]
        new = new.encode("utf-8") if isinstance(new, str) else new
        p.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + n:])
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(p)


    @pytest.mark.parametrize("kind", ["n_heads 0", "n_layers a string", "n_layers 1.5",
                                      "n_layers true", "d_ff -1", "unknown style",
                                      "deep nesting", "overlong int"])
    def test_invalid_header_values(self, tmp_path, kind):
        cfg = desk()
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=6), cfg, p)
        blob = p.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + n])
        model = header["model"]
        new = {
            "n_heads 0": json.dumps({**header, "model": {**model, "n_heads": 0}}),
            "n_layers a string": json.dumps({**header, "model": {**model, "n_layers": "2"}}),
            "n_layers 1.5": json.dumps({**header, "model": {**model, "n_layers": 1.5}}),
            "n_layers true": json.dumps({**header, "model": {**model, "n_layers": True}}),
            "d_ff -1": json.dumps({**header, "model": {**model, "d_ff": -1}}),
            "unknown style": json.dumps({**header, "model": {**model, "style_mode": "x"}}),
            "deep nesting": '{"model": ' + "[" * 5000,
            "overlong int": '{"model": ' + "1" * 5000 + "}",
        }[kind].encode("utf-8")
        p.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + n:])
        with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
            load_checkpoint(p)

    def test_tensor_name_not_utf8(self, tmp_path):
        cfg = desk()
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=6), cfg, p)
        blob = bytearray(p.read_bytes())
        first_name = 16 + int.from_bytes(blob[8:12], "little")
        assert blob[first_name:first_name + 7] == b"tok_emb"
        blob[first_name] = 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="tensor name.*not UTF-8"):
            load_checkpoint(p)

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        cfg = desk()
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=6), cfg, p)
        # 2**93 float32 values: numpy's int64 product would wrap to 0
        tail = struct.pack("<I", 1) + b"x" + struct.pack("<4I", 3, 2 ** 31, 2 ** 31, 2 ** 31)
        p.write_bytes(p.read_bytes() + tail)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)


class TestDeclaredSizeIsBounded:
    """A header cannot make the reader build a table larger than the file it read."""

    @pytest.mark.parametrize("tensors", ["all", "none"])
    def test_million_layers_fail_fast_with_a_short_message(self, tmp_path, tensors):
        cfg = desk()
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(cfg, seed=6) if tensors == "all" else {}, cfg, p)
        bad = rewrite_header(p, tmp_path / "bad.ckpt", {"n_layers": 10 ** 6})
        t0 = time.perf_counter()
        with pytest.raises(CheckpointError, match="do not match the model config") as err:
            load_checkpoint(bad)
        assert time.perf_counter() - t0 < 1.0
        assert len(str(err.value)) < 2000
        assert "1000000 layers" in str(err.value)

    def test_mismatch_list_is_capped(self, tmp_path):
        cfg = desk()  # 2 layers: 32 tensors in the file
        save_checkpoint(init_params(cfg, seed=6), cfg, tmp_path / "m.ckpt")
        bad = rewrite_header(tmp_path / "m.ckpt", tmp_path / "bad.ckpt", {"n_layers": 30})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(bad)
        msg = str(err.value)
        assert "and 326 more" in msg  # 28 missing layers of 12 tensors, 10 named
        assert len(re.findall(r"missing vs", msg)) == 10
        assert len(msg) < 2000


class TestLoadedParamsAreConstants:
    """A loaded checkpoint is for inference: its forwards build no autodiff graph."""

    def test_forwards_build_no_graph_and_match_the_leaves(self, tmp_path):
        ids = np.array([[1, 7, 8, 9, 2, 0], [1, 10, 11, 2, 0, 0]])
        for cfg, forwards in ((desk("lm"), [lm_forward]),
                              (desk("classifier"), [clf_forward, extract_latent])):
            leaves = init_params(cfg, seed=4, zero_head=False)
            p = tmp_path / f"{cfg.head_type}.ckpt"
            save_checkpoint(leaves, cfg, p)
            loaded = load_checkpoint(p).params
            assert not any(t.requires_grad for t in loaded.values())
            for forward in forwards:
                out = forward(loaded, cfg, ids)
                assert out._parents == () and out._backward is None, forward.__name__
                assert out.data.tobytes() == forward(leaves, cfg, ids).data.tobytes()


class TestTensorsAgainstConfig:
    """Every tensor's name and shape must match what the header's config declares."""

    @pytest.mark.parametrize("tamper", ["missing", "extra", "misshaped"])
    def test_tampered_tensors_rejected(self, tmp_path, tamper):
        cfg = desk()
        params = init_params(cfg, seed=9)
        if tamper == "missing":
            del params["layer1.ffn.b2"]
        elif tamper == "extra":
            params["layer9.attn.wq"] = params["layer0.attn.wq"]
        else:
            params["pos_emb"] = Tensor(np.zeros((cfg.max_seq + 1, cfg.token_dim), np.float32))
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, p)
        with pytest.raises(CheckpointError, match="do not match the model config") as err:
            load_checkpoint(p)
        name = {"missing": "layer1.ffn.b2 missing vs (64,)",
                "extra": "layer9.attn.wq (64, 64) vs not in config",
                "misshaped": "pos_emb (65, 64) vs (64, 64)"}[tamper]
        assert name in str(err.value)

    def test_shapes_follow_the_config(self):
        cfg = ModelConfig.desk_scale(vocab_size=30, style_mode="learned10")
        shapes = param_shapes(cfg)
        assert list(shapes) == list(init_params(cfg))
        assert shapes["tok_emb"] == (30, 54) and shapes["style.w1"] == (5, 32)
        assert {k: v.data.shape for k, v in init_params(cfg).items()} == shapes


class TestHeadMismatch:
    def test_lm_loaded_as_classifier_names_both_shapes(self, tmp_path):
        cfg = desk("lm")
        params = init_params(cfg, seed=6)
        p = tmp_path / "lm.ckpt"
        save_checkpoint(params, cfg, p)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p, expect_head="classifier")
        msg = str(err.value)
        assert "(64, 20)" in msg       # the lm head shape on disk
        assert "(64, 4)" in msg        # the expected classifier head shape
        assert "lm" in msg and "classifier" in msg

    def test_matching_head_accepted(self, tmp_path):
        cfg = desk("lm")
        params = init_params(cfg, seed=7)
        p = tmp_path / "lm.ckpt"
        save_checkpoint(params, cfg, p)
        assert load_checkpoint(p, expect_head="lm").config.head_type == "lm"

    def test_no_partial_file_on_failure(self, tmp_path):
        # atomic write: a failing save leaves no destination file behind
        cfg = desk()
        params = init_params(cfg, seed=8)
        target = tmp_path / "nodir" / "m.ckpt"
        with pytest.raises(OSError):
            save_checkpoint(params, cfg, target)
        assert not target.exists()

"""Binary model checkpoints.

Layout: magic "WYN1", format version u32, length-prefixed UTF-8 JSON
header (model config + free-form meta), then each tensor in declaration
order as (name length u32, name, rank u32, dims u32..., little-endian
float32 payload). All integers little-endian. Save then load then save
is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_write_bytes
from .model import ModelConfig, param_shapes
from .tensor import Tensor

MAGIC = b"WYN1"
VERSION = 1
MISMATCHES_SHOWN = 10  # tensor mismatches named in a load error; the rest are counted


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: ModelConfig
    meta: dict


def save_checkpoint(params: dict[str, Tensor], config: ModelConfig,
                    path: str | Path, meta: dict | None = None) -> None:
    header = json.dumps({"model": asdict(config), "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(header)), header]
    for name, t in params.items():
        nb = name.encode("utf-8")
        arr = np.ascontiguousarray(t.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes, path: Path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"corrupt checkpoint {self.path}: truncated at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.blob)


def load_checkpoint(path: str | Path, expect_head: str | None = None) -> Checkpoint:
    p = Path(path)
    r = _Reader(p.read_bytes(), p)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{p} is not a checkpoint: bad magic")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{p}: unsupported checkpoint version {version}")
    raw_header = r.take(r.u32())
    try:
        header = json.loads(raw_header.decode("utf-8"))
        config = ModelConfig(**header["model"])
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{p}: unreadable checkpoint header: {exc!r}") from None
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{p}: checkpoint header meta is not a JSON object")
    params: dict[str, Tensor] = {}
    while not r.exhausted:
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{p}: a tensor name is not UTF-8") from None
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        arr = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4").reshape(dims).copy()
        params[name] = Tensor(arr)
    if config.n_layers > len(params):  # each layer needs a tensor: bounds the table below
        raise CheckpointError(f"{p}: tensors do not match the model config: the header "
                              f"declares {config.n_layers} layers, the file holds "
                              f"{len(params)} tensors")
    have = {name: t.data.shape for name, t in params.items()}
    want = param_shapes(config)
    if have != want:
        bad = sorted(f"{n} {have.get(n, 'missing')} vs {want.get(n, 'not in config')}"
                     for n in have.keys() | want.keys() if have.get(n) != want.get(n))
        more = f", and {len(bad) - MISMATCHES_SHOWN} more" if len(bad) > MISMATCHES_SHOWN else ""
        raise CheckpointError(f"{p}: tensors do not match the model config (file vs config): "
                              + ", ".join(bad[:MISMATCHES_SHOWN]) + more)
    if expect_head is not None and config.head_type != expect_head:
        have = params["head.w"].data.shape
        want_width = config.vocab_size if expect_head == "lm" else config.n_sections
        raise CheckpointError(
            f"{p}: checkpoint head is {config.head_type} with shape {tuple(have)}, "
            f"but a {expect_head} head of shape ({config.d_model}, {want_width}) was expected")
    return Checkpoint(params=params, config=config, meta=meta)

"""Seeded mutation fuzz of the container readers, and a config mutation fuzz.

Valid files are truncated, have bytes flipped or have header fields
rewritten (rank, dims, dtype, names, meta).  Whatever the mutant, only
``ContainerFormatError`` may escape ``read_container``, and only it or
``ConfigError`` may escape ``load_pair`` and ``load_checkpoint``.

Every leaf of a valid run config is replaced in turn by each of a set of
odd values.  Whatever the mutant, only ``ConfigError`` may escape decoding,
validation, building pairs from it and one detector forward pass on them.
"""

import copy
import json
import math

import numpy as np
import pytest

from avlab import avdata
from avlab.container import MAGIC, read_container
from avlab.detector import Detector, load_checkpoint, must_fit, save_checkpoint, tiny_config
from avlab.errors import ConfigError, ContainerFormatError
from avlab.pseudofake import ManipulationSpec
from avlab.rng import substream
from avlab.trainloop import RunConfig
from test_cli import TINY_CONFIG

MUTANTS = 300
ODD_VALUES = (None, -1, 0, 1.5, True, "", "3", "{", "[]", "null", '{"kind": "cut"}', '[{"i": 0}]',
              [2], {"a": 1})


def _split(raw: bytes):
    n = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + n]), raw[16 + n:]


def _join(header, payload: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return MAGIC + len(text).to_bytes(8, "little") + text + payload


def _edit_header(header: dict, rng: np.random.Generator) -> None:
    """Rewrite one field of a parsed header in place."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    entry = pick(header["tensors"])
    shape, dim, odd = entry["shape"], int(rng.integers(len(entry["shape"]))), pick(ODD_VALUES)
    edit = int(rng.integers(10))
    if edit == 0:
        shape.insert(dim, int(rng.integers(3)))  # one rank more
    elif edit == 1:
        shape.pop(dim)  # one rank less
    elif edit == 2:
        shape[dim] = int(rng.integers(2**40))
    elif edit == 3:
        shape[dim] = odd
    elif edit == 4:
        rng.shuffle(shape)  # same size, other dims
    elif edit == 5:
        entry["dtype"] = pick(("f64", "i4", "F32", odd))
    elif edit == 6:
        entry["name"] = pick((header["tensors"][0]["name"], odd))
    elif edit == 7:
        header["meta"][pick(sorted(header["meta"]))] = odd
    elif edit == 8:
        del header["meta"][pick(sorted(header["meta"]))]
    else:
        del entry[pick(("name", "dtype", "shape"))]


def _mutant(raw: bytes, rng: np.random.Generator) -> bytes:
    kind = int(rng.integers(3))
    if kind == 0:
        return raw[: int(rng.integers(len(raw)))]
    if kind == 1:  # flips land in the header 4 times in 5: the payload is just floats
        data, header_end = bytearray(raw), 16 + int.from_bytes(raw[8:16], "little")
        for _ in range(int(rng.integers(1, 5))):
            i = int(rng.integers(header_end if rng.random() < 0.8 else len(data)))
            data[i] ^= int(rng.integers(1, 256))
        return bytes(data)
    header, payload = _split(raw)
    _edit_header(header, rng)
    return _join(header, payload)


def _pair_file(path):
    cfg = avdata.SynthConfig(t_v=4, c_v=1, h=6, w=6, t_a=64)
    real = avdata.synth_real_pair(cfg, substream(0, "fuzz-pair"))
    avdata.save_pair(path, avdata.apply_to_pair(real, "visual", ManipulationSpec("repeat", 0, 2, param=2)))
    return avdata.load_pair


def _checkpoint_file(path):
    save_checkpoint(path, Detector(tiny_config(), seed=0), {"epoch": "1"})
    return load_checkpoint


@pytest.mark.parametrize("make", [_pair_file, _checkpoint_file], ids=["pair", "checkpoint"])
def test_only_documented_errors_escape_the_readers(make, tmp_path):
    valid = tmp_path / "valid.avtc"
    load = make(valid)
    load(valid)
    raw = valid.read_bytes()
    rng = substream(0, "fuzz", make.__name__)
    path = tmp_path / "mutant.avtc"
    for n in range(MUTANTS):
        path.write_bytes(_mutant(raw, rng))
        for reader, allowed in ((read_container, ContainerFormatError), (load, (ContainerFormatError, ConfigError))):
            try:
                reader(path)
            except allowed:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure names the escape
                pytest.fail(f"mutant {n}: {reader.__name__} raised {type(exc).__name__}: {exc}")


# Small on purpose: no mutant of TINY_CONFIG asks for more than a few MB.
LEAF_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 1, 2, 3, 0.5, 1.5, -0.5, "x", True, None, [], {})


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(value, (*path, key))
    else:
        yield path


def _decode_and_run(raw: dict) -> None:
    cfg = RunConfig.from_dict(raw)
    cfg.validate()
    pairs = [*avdata.iter_pairs(cfg.synth, 2, 0.5, cfg.train_data.fake_mode, cfg.chunk, seed=cfg.seed),
             *avdata.iter_pairs(cfg.synth, 2, 0.5, "local_desync", cfg.eval_data.fine_chunk, seed=cfg.seed)]
    with must_fit("the fuzzed clips"):
        Detector(cfg.detector, seed=cfg.seed).infer(
            np.stack([p.visual.data for p in pairs]), np.stack([p.audio.data for p in pairs]))


def test_only_config_error_escapes_a_mutated_config():
    valid = RunConfig.from_dict(TINY_CONFIG).to_dict()
    _decode_and_run(valid)
    paths = list(_leaf_paths(valid))
    assert len(paths) == 57
    escapes = []
    for path in paths:
        for value in LEAF_VALUES:
            mutant = copy.deepcopy(valid)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                _decode_and_run(mutant)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure names every escape
                escapes.append(f"{'.'.join(map(str, path))}={value!r}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)

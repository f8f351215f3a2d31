"""The config decoder: type rules, key paths and pass-through of valid values."""

import math

import pytest

from avlab.errors import ConfigError
from avlab.pseudofake import ChunkParams, ManipulationSpec
from avlab.schema import decode
from avlab.trainloop import RunConfig


def test_decode_keeps_valid_values_as_given():
    chunk = ChunkParams(r_min=0.25)
    cfg = decode(RunConfig, {"lr": 1, "checkpoint_dir": None, "chunk": chunk, "eval_data": {"n": 4}})
    assert type(cfg.lr) is int and cfg.lr == 1  # an int stays an int in a float field
    assert cfg.checkpoint_dir is None
    assert cfg.chunk is chunk
    assert cfg.eval_data.n == 4 and cfg.eval_data.fine_chunk == ChunkParams(r_min=0.2, r_max=0.5)
    spec = decode(ManipulationSpec, {"kind": "flip", "i": 0, "l": 4, "param": 2})
    assert spec == ManipulationSpec("flip", 0, 4, 2)


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "config must be a JSON object, got list"),
        ({"epochs": True}, "config key epochs must be int, got bool"),
        ({"epochs": 2.0}, "config key epochs must be int, got float"),
        ({"lr": "0.1"}, "config key lr must be float, got str"),
        ({"detector": {"attention": 1}}, "config key detector.attention must be bool, got int"),
        ({"train_data": {"fake_mode": None}}, "config key train_data.fake_mode must be str, got NoneType"),
        ({"checkpoint_dir": 5}, "config key checkpoint_dir must be str or null, got int"),
        ({"combo_weights": [1.0]}, "config key combo_weights must be dict, got list"),
        ({"detector": {"audio_blocks": {}}}, "config key detector.audio_blocks must be list, got dict"),
        ({"eval_data": {"fine_chunk": 0.5}}, "config key eval_data.fine_chunk must be a JSON object"),
        ({"eval_data": {"fine_chunk": {"r_mid": 0.5}}}, "config has unknown key eval_data.fine_chunk.r_mid"),
        ({"lr": math.nan}, "config key lr must be a finite float, got nan"),
        ({"weight_decay": math.inf}, "config key weight_decay must be a finite float, got inf"),
        ({"synth": {"envelope_bandwidth": -math.inf}}, "config key synth.envelope_bandwidth must be a finite float"),
        ({"eval_data": {"fine_chunk": {"r_max": math.nan}}}, "config key eval_data.fine_chunk.r_max must be a finite"),
        ({"chunk": {"hard_min": 2}}, "config has unknown key chunk.hard_min"),
        ({"synth": {"fake_audio_artifact": 0.15}}, "config has unknown key synth.fake_audio_artifact"),
    ],
)
def test_decode_rejects_malformed_config(data, message):
    with pytest.raises(ConfigError, match="^" + message.replace(".", r"\.")):
        decode(RunConfig, data)


def test_decode_requires_fields_without_default():
    with pytest.raises(ConfigError, match="manipulation spec is missing key l"):
        ManipulationSpec.from_dict({"kind": "flip", "i": 0})

import json

import pytest

from stylecast.config import ConfigValidationError, load_config, validate_config
from stylecast.generate import SamplingPolicy
from stylecast.model import ModelConfig
from stylecast.train import TrainConfig


class TestValidate:
    def test_minimal_config_gets_defaults(self):
        cfg = validate_config('{"corpus": "c.jsonl"}')
        assert cfg.corpus == "c.jsonl"
        assert cfg.optimizer == "adamw"
        assert cfg.learning_rate == 3e-4
        assert cfg.split_ratio == 0.9
        assert cfg.n_layers == 2 and cfg.d_model == 64
        assert cfg.knn == 15 and cfg.layout_epochs == 200

    def test_defaults_agree_with_the_dataclasses(self):
        """The schema repeats the dataclasses' defaults: a change to one side must reach both."""
        cfg = validate_config("{}")
        assert cfg.train_config() == TrainConfig()
        assert cfg.sampling_policy() == SamplingPolicy()
        assert cfg.model_config(30, "lm") == ModelConfig.desk_scale(30, style_mode=cfg.style_mode)

    def test_split_ratio_range_error_names_field(self):
        with pytest.raises(ConfigValidationError, match="split_ratio"):
            validate_config('{"split_ratio": 1.5}')

    def test_unknown_key_cited(self):
        with pytest.raises(ConfigValidationError, match="eopchs"):
            validate_config('{"eopchs": 3}')

    def test_all_violations_aggregated(self):
        raw = json.dumps({"split_ratio": 1.5, "eopchs": 3, "learning_rate": -1})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(raw)
        assert len(err.value.problems) == 3

    def test_not_an_object(self):
        with pytest.raises(ConfigValidationError, match="flat JSON object"):
            validate_config("[1, 2]")

    def test_invalid_json(self):
        with pytest.raises(ConfigValidationError, match="JSON"):
            validate_config("{nope")

    def test_section_names_length_checked(self):
        with pytest.raises(ConfigValidationError, match="section_names"):
            validate_config('{"n_sections": 3, "section_names": ["a", "b"]}')

    def test_section_names_default_list(self):
        cfg = validate_config('{"n_sections": 11}')
        assert len(cfg.section_names) == 11
        assert cfg.section_names[6] == "Politics"

    def test_head_divisibility(self):
        with pytest.raises(ConfigValidationError, match="divisible"):
            validate_config('{"d_model": 65, "n_heads": 4}')

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigValidationError, match="epochs"):
            validate_config('{"epochs": true}')


class TestHashAndOverrides:
    def test_hash_stable(self):
        a = validate_config('{"corpus": "x"}')
        b = validate_config('{"corpus": "x"}')
        assert a.hash() == b.hash() and len(a.hash()) == 12

    def test_overrides_change_hash(self):
        a = validate_config('{"corpus": "x"}')
        b = validate_config('{"corpus": "x"}', overrides={"epochs": 9})
        assert b.epochs == 9
        assert a.hash() != b.hash()

    def test_override_validated_too(self):
        with pytest.raises(ConfigValidationError, match="epochs"):
            validate_config("{}", overrides={"epochs": "three"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="not found"):
            load_config(tmp_path / "none.json")

    def test_model_and_train_configs_derive(self):
        cfg = validate_config('{"style_mode": "learned10", "title_len": 20}')
        mc = cfg.model_config(vocab_size=30, head_type="lm")
        assert mc.style_mode == "learned10" and mc.vocab_size == 30
        clf = cfg.model_config(vocab_size=30, head_type="classifier")
        assert clf.style_mode == "none" and clf.max_seq == 20
        tc = cfg.train_config()
        assert tc.optimizer == "adamw"
        pol = cfg.sampling_policy()
        assert pol.mode == "temperature" and pol.temperature == 0.8

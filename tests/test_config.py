"""Strict JSON config loading for instances and sweeps."""

import json

import numpy as np
import pytest

from specgame import ConfigError, ExponentialEfficiency, RationalSigmoidEfficiency
from specgame.config import (
    efficiency_from_mapping,
    instance_from_mapping,
    load_instance_config,
    load_json,
    load_sweep_config,
    sweep_from_mapping,
)

INSTANCE = {
    "sigma2": 1.0,
    "rates": [1.0, 1.0],
    "gains": [[3.0, 1.0], [1.0, 2.0]],
    "efficiency": {"model": "exponential", "M": 100},
}


def write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestInstanceMapping:
    def test_round_trip(self):
        inst = instance_from_mapping(INSTANCE)
        assert inst.sigma2 == 1.0
        assert inst.rates == (1.0, 1.0)
        assert np.array_equal(inst.channel.gains, [[3.0, 1.0], [1.0, 2.0]])
        assert inst.efficiency == ExponentialEfficiency(M=100)

    def test_rates_default_to_unity(self):
        cfg = dict(INSTANCE)
        del cfg["rates"]
        assert instance_from_mapping(cfg).rates == (1.0, 1.0)

    def test_block_length_defaults_to_100(self):
        cfg = dict(INSTANCE, efficiency={"model": "exponential"})
        assert instance_from_mapping(cfg).efficiency == ExponentialEfficiency(M=100)

    def test_rational_sigmoid_model(self):
        cfg = dict(INSTANCE, efficiency={"model": "rational_sigmoid"})
        assert isinstance(instance_from_mapping(cfg).efficiency, RationalSigmoidEfficiency)

    def test_missing_required_key(self):
        for key in ("sigma2", "gains", "efficiency"):
            cfg = dict(INSTANCE)
            del cfg[key]
            with pytest.raises(ConfigError, match=key):
                instance_from_mapping(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            instance_from_mapping(dict(INSTANCE, bogus=1))

    def test_unknown_efficiency_key_rejected(self):
        cfg = dict(INSTANCE, efficiency={"model": "exponential", "shape": 3})
        with pytest.raises(ConfigError, match="shape"):
            instance_from_mapping(cfg)

    def test_unknown_model_rejected(self):
        cfg = dict(INSTANCE, efficiency={"model": "cubic"})
        with pytest.raises(ConfigError, match="cubic"):
            instance_from_mapping(cfg)

    def test_sigmoid_takes_no_block_length(self):
        cfg = dict(INSTANCE, efficiency={"model": "rational_sigmoid", "M": 4})
        with pytest.raises(ConfigError):
            instance_from_mapping(cfg)

    def test_gains_must_be_two_rows(self):
        with pytest.raises(ConfigError):
            instance_from_mapping(dict(INSTANCE, gains=[[3.0, 1.0]]))
        with pytest.raises(ConfigError):
            instance_from_mapping(
                dict(INSTANCE, gains=[[3.0, 1.0], [1.0, 2.0], [1.0, 1.0]])
            )

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            instance_from_mapping(dict(INSTANCE, sigma2=True))


class TestEfficiencyMapping:
    def test_explicit_block_length(self):
        assert efficiency_from_mapping({"model": "exponential", "M": 2}) == (
            ExponentialEfficiency(M=2)
        )

    def test_bad_block_length(self):
        with pytest.raises(ConfigError):
            efficiency_from_mapping({"model": "exponential", "M": 1})
        with pytest.raises(ConfigError):
            efficiency_from_mapping({"model": "exponential", "M": 2.5})


class TestSweepMapping:
    def test_defaults(self):
        cfg = sweep_from_mapping({"K_list": [2, 4]})
        assert cfg.K_list == (2, 4)
        assert cfg.rho_list == (0.0,)
        assert cfg.theta_list == (0.0,)
        assert cfg.trials == 10_000
        assert cfg.seed == 0
        assert cfg.modes == ("nash", "stackelberg", "social")
        assert cfg.efficiency == ExponentialEfficiency(M=100)

    def test_full_mapping(self):
        cfg = sweep_from_mapping(
            {
                "K_list": [2],
                "rho_list": [0.0, 0.8],
                "theta_list": [1.0],
                "trials": 500,
                "seed": 7,
                "sigma2": 2.0,
                "rates": [2.0, 1.0],
                "modes": ["nash"],
                "mean_gain": 1.5,
                "efficiency": {"model": "exponential", "M": 2},
            }
        )
        assert cfg.rho_list == (0.0, 0.8)
        assert cfg.theta_list == (1.0,)
        assert cfg.trials == 500
        assert cfg.seed == 7
        assert cfg.sigma2 == 2.0
        assert cfg.rates == (2.0, 1.0)
        assert cfg.modes == ("nash",)
        assert cfg.mean_gain == 1.5
        assert cfg.efficiency == ExponentialEfficiency(M=2)

    def test_k_list_required(self):
        with pytest.raises(ConfigError, match="K_list"):
            sweep_from_mapping({"trials": 100})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="bogus"):
            sweep_from_mapping({"K_list": [2], "modes": ["nash", "bogus"]})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="surprise"):
            sweep_from_mapping({"K_list": [2], "surprise": 1})


class TestFileLoading:
    def test_load_instance(self, tmp_path):
        inst = load_instance_config(write(tmp_path, INSTANCE))
        assert inst.K == 2

    def test_load_sweep(self, tmp_path):
        cfg = load_sweep_config(write(tmp_path, {"K_list": [2], "trials": 10}))
        assert cfg.trials == 10

    def test_seed_range_edge(self, tmp_path):
        # the seed is one uint64 word of the Philox key
        top = load_sweep_config(write(tmp_path, {"K_list": [2], "seed": 2**64 - 1}))
        assert top.seed == 2**64 - 1
        with pytest.raises(ConfigError, match="seed"):
            load_sweep_config(write(tmp_path, {"K_list": [2], "seed": 2**64}))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_json("/nonexistent/path.json")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"sigma2": 1.0,\n  bad}')
        with pytest.raises(ConfigError, match=r"line 2 column 3"):
            load_json(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_json(str(path))

"""Each config checks its own fields when it is built."""

import math
import re
from dataclasses import replace

import pytest

from hydramerge.baselines import BaselineConfig
from hydramerge.errors import ParameterError
from hydramerge.hydra import HydraConfig
from hydramerge.synthetic import SynthSpec

# (config type, the fields given, the whole message): each rule of each config
INVALID = [
    (SynthSpec, {"tasks": 0}, "tasks must be >= 1, got 0"),
    (SynthSpec, {"layers": 0}, "need at least one layer and one slot name"),
    (SynthSpec, {"slot_names": ()}, "need at least one layer and one slot name"),
    (SynthSpec, {"slot_names": ("q", "q")}, "duplicate slot names in ('q', 'q')"),
    (SynthSpec, {"d": 0}, "d, k and rank must be positive"),
    (SynthSpec, {"k": 0}, "d, k and rank must be positive"),
    (SynthSpec, {"rank": 0}, "d, k and rank must be positive"),
    (SynthSpec, {"rank": 17}, "rank 17 exceeds min(d, k) = 16"),
    (SynthSpec, {"a_noise": -1.0}, "a_noise must be finite and >= 0, got -1.0"),
    (SynthSpec, {"a_noise": math.nan}, "a_noise must be finite and >= 0, got nan"),
    (SynthSpec, {"b_scale": math.inf}, "b_scale must be finite and >= 0, got inf"),
    (BaselineConfig, {"ties_density": 0.0}, "ties_density must be in (0, 1], got 0.0"),
    (BaselineConfig, {"ties_density": 1.5}, "ties_density must be in (0, 1], got 1.5"),
    (BaselineConfig, {"dare_drop_p": 1.0}, "dare_drop_p must be in [0, 1), got 1.0"),
    (BaselineConfig, {"dare_drop_p": -0.1}, "dare_drop_p must be in [0, 1), got -0.1"),
    (BaselineConfig, {"scale": 0.0}, "scale must be finite and > 0, got 0.0"),
    (BaselineConfig, {"scale": math.inf}, "scale must be finite and > 0, got inf"),
    (HydraConfig, {"num_clusters": 0}, "num_clusters must be >= 1, got 0"),
    (HydraConfig, {"temperature": 0.0}, "temperature must be finite and > 0, got 0.0"),
    (HydraConfig, {"temperature": math.inf}, "temperature must be finite and > 0, got inf"),
    (HydraConfig, {"epochs": -1}, "epochs must be >= 0, got -1"),
    (HydraConfig, {"learning_rate": -1e-3}, "learning_rate must be finite and > 0, got -0.001"),
    (HydraConfig, {"learning_rate": math.nan}, "learning_rate must be finite and > 0, got nan"),
]

# the fields each config needs besides those under test
REQUIRED = {SynthSpec: {}, BaselineConfig: {"method": "ta"}, HydraConfig: {"num_clusters": 2}}


@pytest.mark.parametrize(
    "config, fields, message", INVALID, ids=[f"{c.__name__}-{m}" for c, _, m in INVALID]
)
def test_an_invalid_field_raises_when_built(config, fields, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        config(**{**REQUIRED[config], **fields})


@pytest.mark.parametrize(
    "config, fields",
    [
        (SynthSpec, {"tasks": 1, "layers": 1, "rank": 16, "a_noise": 0.0, "b_scale": 0.0}),
        (BaselineConfig, {"ties_density": 1.0, "dare_drop_p": 0.0}),
        (HydraConfig, {"num_clusters": 1, "epochs": 0}),
    ],
)
def test_each_bound_that_is_allowed_builds(config, fields):
    built = config(**{**REQUIRED[config], **fields})
    assert all(getattr(built, name) == value for name, value in fields.items())


def test_replace_checks_again():
    with pytest.raises(ParameterError, match=r"^epochs must be >= 0, got -2$"):
        replace(HydraConfig(num_clusters=2), epochs=-2)


def test_only_the_rule_that_needs_the_targets_is_left_to_validate():
    assert not hasattr(SynthSpec, "validate")
    assert not hasattr(BaselineConfig, "validate")
    cfg = HydraConfig(num_clusters=3)
    cfg.validate(3)
    with pytest.raises(ParameterError, match=r"^num_clusters = 3 exceeds the 2 tasks$"):
        cfg.validate(2)
    # the fields checked when the config was built are not checked again
    object.__setattr__(cfg, "temperature", 0.0)
    cfg.validate(3)

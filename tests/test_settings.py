"""Settings records check themselves when built and cannot be changed
afterwards: a record no run accepts never exists, so no consumer has to
remember to check one."""

import dataclasses
import re

import pytest

from hypergt.adaptive import AdaptiveConfig
from hypergt.builders import ModelSpec
from hypergt.errors import SchemaError
from hypergt.harness import ExperimentConfig
from hypergt.noisy import NoiseChannel
from hypergt.snagt import SnagtConfig

NESTED4 = ModelSpec("nested", {"n": 4})

# (class, valid settings, one bad setting, the message it raises, a field to assign)
RECORDS = [
    (AdaptiveConfig, {}, {"c": 0.7}, "c=0.7 outside (0, 1/2)", "c"),
    (SnagtConfig, {"u": 3}, {"u": 1}, "u=1 must be >= 2", "u"),
    (NoiseChannel, {"delta": 0.1}, {"delta": 0.5}, "delta=0.5 outside [0, 1/2)", "delta"),
    (ExperimentConfig, {"model": NESTED4, "algorithm": "base"}, {"trials": 0},
     "experiment config: trials must be >= 1", "trials"),
    (ModelSpec, {"family": "nested", "params": {"n": 4}}, {"family": "fig1"},
     "unknown model family 'fig1'", "family"),
]


@pytest.mark.parametrize("cls,good,bad,message,name", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_a_bad_value_is_refused_when_built_and_a_built_record_is_frozen(cls, good, bad,
                                                                        message, name):
    with pytest.raises(SchemaError, match=re.escape(message)):
        cls(**{**good, **bad})
    record = cls(**good)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("settings,message", [
    ({"algorithm": "snagt", "u": 4.5}, "'u' must be int | None, not 4.5"),
    ({"algorithm": "base", "trials": True}, "'trials' must be int, not True"),
    ({"algorithm": "base", "seed": 1.5}, "'seed' must be int, not 1.5"),
], ids=["float-u", "bool-trials", "float-seed"])
def test_an_experiment_config_checks_its_field_types_when_built(settings, message):
    with pytest.raises(SchemaError, match=re.escape(f"experiment config: {message}")):
        ExperimentConfig(NESTED4, **settings)


def test_a_spec_keeps_its_own_copy_of_its_params():
    params = {"sizes": [3, 3], "q": 0.3, "p": [0.5, 0.5]}
    spec = ModelSpec("community", params)
    params["p"].append("x")
    params["q"] = "y"
    assert spec.params == {"sizes": [3, 3], "q": 0.3, "p": [0.5, 0.5]}

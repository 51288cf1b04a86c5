"""Settings records check themselves when built and cannot be changed
afterwards: a record no run accepts never exists, so no consumer has to
remember to check one."""

import dataclasses
import re

import pytest

from hypergt.adaptive import AdaptiveConfig
from hypergt.builders import ModelSpec
from hypergt.errors import SchemaError
from hypergt.harness import READS, ExperimentConfig, run_experiment
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


# A valid value off its default for every engine setting, and what an
# algorithm needs besides (truncated takes f2 or eps, not both).
OFF_DEFAULT = {"c": 0.25, "eps": 0.1, "f2": 2, "u": 3, "delta": 0.1, "alpha": 1.0,
               "stop_coeff": 5.0, "cap_coeff": 3.0, "max_tests": 40}
NEEDS = {"truncated": {"eps": 0.2}, "snagt": {"u": 3}, "noisy_snagt": {"u": 3}}


def test_reads_names_every_engine_setting_and_nothing_else():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    named = {name for row in READS.values() for name in row}
    assert named == fields - {"model", "algorithm", "trials", "seed", "output"}
    assert named == OFF_DEFAULT.keys()


@pytest.mark.parametrize("algorithm,name", [(a, name) for a, row in READS.items() for name in row])
def test_an_algorithm_runs_with_every_setting_it_reads(algorithm, name):
    settings = {**NEEDS.get(algorithm, {}), name: OFF_DEFAULT[name]}
    if name == "f2":
        del settings["eps"]
    assert len(run_experiment(ExperimentConfig(NESTED4, algorithm, trials=2, **settings))) == 2


@pytest.mark.parametrize("algorithm,name", [(a, name) for a, row in READS.items()
                                            for name in OFF_DEFAULT if name not in row])
def test_an_algorithm_refuses_every_setting_it_does_not_read(algorithm, name):
    readers = [a for a, row in READS.items() if name in row]
    message = f"experiment config: {name}={OFF_DEFAULT[name]} applies only to "
    settings = {**NEEDS.get(algorithm, {}), name: OFF_DEFAULT[name]}
    with pytest.raises(SchemaError, match=re.escape(message)) as info:
        ExperimentConfig(NESTED4, algorithm, **settings)
    assert str(info.value).endswith(readers[-1])


def test_a_spec_keeps_its_own_copy_of_its_params():
    params = {"sizes": [3, 3], "q": 0.3, "p": [0.5, 0.5]}
    spec = ModelSpec("community", params)
    params["p"].append("x")
    params["q"] = "y"
    assert spec.params == {"sizes": [3, 3], "q": 0.3, "p": [0.5, 0.5]}

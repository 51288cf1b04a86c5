"""Every name the benchmark's tracer rebinds must still exist, and the harness
must call its engines through those names.

The tracer in benchmark/spans.py reports a renamed or deleted target only as
an `absent` row at run time; here the same lookup fails the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hypergt import harness
from hypergt.builders import ModelSpec

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,attr,span", load_targets())
def test_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} (span {span}) is not callable"


@pytest.mark.parametrize("algorithm,engine", [
    ("base", "run_adaptive"), ("snagt", "run_snagt"),
    ("noisy_adaptive", "run_noisy_adaptive"), ("noisy_snagt", "run_noisy_snagt"),
])
def test_the_harness_calls_each_engine_by_its_module_name(monkeypatch, algorithm, engine):
    """The tracer rebinds `hypergt.harness.run_*`; a runner that captured the
    engine function before the rebinding would leave its spans empty."""
    calls = []
    original = getattr(harness, engine)
    monkeypatch.setattr(harness, engine, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    settings = {key: value for key, value in {"u": 4, "stop_coeff": 1.0, "delta": 0.05}.items()
                if key in harness.READS[algorithm]}
    config = harness.ExperimentConfig(model=ModelSpec("nested", {"n": 4}), algorithm=algorithm,
                                      trials=2, **settings)
    harness.run_experiment(config)
    assert len(calls) == 2

"""Every name the benchmark's tracer rebinds must still exist.

The tracer in benchmark/spans.py reports a renamed or deleted target only as
an `absent` row at run time; here the same lookup fails the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

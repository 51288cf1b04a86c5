"""Arbitrary JSON in place of a transcript record, a query, an outcome, an
experiment config or any one of its fields, or a model file or any one of its
fields, and parameters of the annotated types for every model family: every
input either parses (or builds) or is refused with a ModelError subclass,
never with a KeyError, TypeError, IndexError, AttributeError, OverflowError,
MemoryError or bare ValueError."""

import dataclasses
import inspect
import json
import math
import types
import typing
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergt.builders import BUILDERS, ModelSpec, build_model
from hypergt.errors import ModelError, SchemaError
from hypergt.harness import ALGORITHMS, READS, ExperimentConfig
from hypergt.model import load_model, parse_json, save_model
from hypergt.transcript import read_records

N = 5
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(ALGORITHMS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)
FUZZ = settings(max_examples=150, deadline=None)


def parse_or_refuse(parse, *args):
    """The parsed value, or None when parse raised a ModelError."""
    try:
        return parse(*args)
    except ModelError:
        return None


def read(doc):
    pairs = parse_or_refuse(read_records, doc, N, "transcript")
    if pairs is not None:
        assert all(0 <= m < 2 ** N and type(o) is bool for m, o in pairs)
    return pairs


class TestTranscriptRecords:
    @FUZZ
    @given(json_values)
    def test_any_document(self, doc):
        read(doc)

    @FUZZ
    @given(json_values)
    def test_any_record(self, rec):
        read([{"query": [0], "outcome": True}, rec])

    @FUZZ
    @given(json_values, st.booleans())
    def test_any_query(self, query, outcome):
        read([{"query": query, "outcome": outcome}])

    @FUZZ
    @given(json_values)
    def test_any_outcome(self, outcome):
        read([{"query": [1, 2], "outcome": outcome}])

    @FUZZ
    @given(st.sampled_from(["mass_removed", "rep_group", "sg_size", "sg_max_time", "stage"]),
           json_values)
    def test_any_optional_value(self, key, value):
        assert read([{"query": [], "outcome": False, key: value}]) == [(0, False)]

    def test_a_well_formed_list_parses(self):
        assert read([{"query": [0, 4], "outcome": True, "stage": "split"},
                     {"query": [], "outcome": False}]) == [(0b10001, True), (0, False)]


def valid_config(algorithm):
    """A config the algorithm accepts: of u=3 and eps=0.1 it sets those the
    algorithm reads, as an unread setting off its default is refused."""
    settings = {key: value for key, value in {"u": 3, "eps": 0.1}.items()
                if key in READS[algorithm]}
    return {"model": {"family": "nested", "params": {"n": 4}}, "algorithm": algorithm,
            "trials": 2, **settings}


def load_config(doc):
    return parse_or_refuse(ExperimentConfig.from_json, doc)


class TestExperimentConfigs:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_base_configs_parse(self, algorithm):
        assert load_config(valid_config(algorithm)) is not None

    @FUZZ
    @given(json_values)
    def test_any_document(self, doc):
        load_config(doc)

    @FUZZ
    @given(st.sampled_from(ALGORITHMS),
           st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
           json_values)
    def test_any_field(self, algorithm, key, value):
        load_config({**valid_config(algorithm), key: value})

    @FUZZ
    @given(st.sampled_from(ALGORITHMS), st.sampled_from(["family", "params"]), json_values)
    def test_any_model_record_value(self, algorithm, key, value):
        doc = valid_config(algorithm)
        doc["model"] = {**doc["model"], key: value}
        load_config(doc)

    @FUZZ
    @given(st.sampled_from(["noisy_adaptive", "noisy_snagt"]),
           st.floats(allow_nan=True) | st.integers(), st.floats(0.0, 0.49))
    def test_any_alpha_at_any_delta(self, algorithm, alpha, delta):
        cfg = load_config({**valid_config(algorithm), "alpha": alpha, "delta": delta})
        if not 0.0 <= alpha < math.inf:
            assert cfg is None


VALID_MODEL = {"n": N, "edges": [[0], [1, 3], []], "probs": [0.5, 0.25, 0.25]}


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


def as_written(edge):
    """How save_model writes a node list back: sorted, each node once."""
    return sorted(set(edge)) if isinstance(edge, list) else edge


def load(doc, directory):
    """Load doc as a model file; a loaded model must write back the same n,
    edge lists and masses (compared as JSON, so 1 and true differ)."""
    path, out = directory / "model.json", directory / "saved.json"
    path.write_text(json.dumps(doc))
    model = parse_or_refuse(load_model, str(path))
    if model is not None:
        save_model(str(out), *model)
        saved = json.loads(out.read_text())
        assert json.dumps(saved["n"]) == json.dumps(doc["n"])
        assert json.dumps(saved["edges"]) == json.dumps([as_written(e) for e in doc["edges"]])
        assert saved["probs"] == [float(p) for p in doc["probs"]]
    return model


class TestModelFiles:
    def test_the_base_model_loads(self, model_dir):
        assert load(VALID_MODEL, model_dir) is not None

    @FUZZ
    @given(json_values)
    def test_any_document(self, model_dir, doc):
        load(doc, model_dir)

    @FUZZ
    @given(json_values)
    def test_any_n(self, model_dir, n):
        # Edges on node 0 only, so that any n >= 1 loads.
        load({"n": n, "edges": [[0], []], "probs": [0.5, 0.5]}, model_dir)

    @FUZZ
    @given(st.sampled_from(["edges", "probs"]), json_values)
    def test_any_edge_list_or_masses(self, model_dir, key, value):
        load({**VALID_MODEL, key: value}, model_dir)

    @FUZZ
    @given(st.integers(0, 2), json_values)
    def test_any_edge(self, model_dir, i, edge):
        edges = list(VALID_MODEL["edges"])
        edges[i] = edge
        load({**VALID_MODEL, "edges": edges}, model_dir)

    @FUZZ
    @given(st.lists(st.integers() | st.booleans(), max_size=4))
    def test_any_node_list(self, model_dir, edge):
        load({**VALID_MODEL, "edges": [[0], edge, []]}, model_dir)


def of_type(hint):
    """Values of an annotated builder parameter type: small integers, negative
    ones included, and floats, out-of-range ones included. Integers stay at
    most 3, so a model stays small enough to build (sbim at most 9 nodes)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(of_type, args))
    if origin is tuple:
        return st.tuples(*map(of_type, args))
    if origin is Sequence:
        return st.lists(of_type(args[0]), max_size=3)
    if hint is int:
        return st.integers(-2, 3)
    if hint is float:
        return st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, math.nan, math.inf])
    assert hint is type(None), hint
    return st.none()


def family_params(family):
    """Every parameter of the family's builder, each of its annotated type."""
    hints = typing.get_type_hints(BUILDERS[family])
    return st.fixed_dictionaries({key: of_type(hints[key])
                                  for key in inspect.signature(BUILDERS[family]).parameters})


class TestModelSpecs:
    @settings(FUZZ, max_examples=100)  # the 11 families add about 5 s
    @pytest.mark.parametrize("family", sorted(BUILDERS))
    @given(data=st.data())
    def test_any_params_build_or_are_refused(self, family, data):
        params = data.draw(family_params(family))
        model = parse_or_refuse(lambda: build_model(ModelSpec(family, params)))
        if model is not None and family == "edge_faulty":
            assert all(0 <= v < params["n"] for e in params["contact_edges"] for v in e)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000],
                         ids=["integer-over-4300-digits", "nesting-past-the-recursion-limit"])
def test_undecodable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="^config is not valid JSON: "):
        parse_json(text, "config")

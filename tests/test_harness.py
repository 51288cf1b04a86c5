import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypergt
from hypergt import cli, harness
from hypergt.builders import ModelSpec, build_model
from hypergt.cli import main as cli_main
from hypergt.errors import MismatchedConfig, NodeOutOfRange, SchemaError
from hypergt.harness import (
    ExperimentConfig,
    TrialResult,
    check_bounds,
    read_csv,
    resolve_model,
    run_experiment,
    summarize,
    write_csv,
)
from hypergt.model import NODE_CAP, parse_json, save_model

NESTED4 = {"family": "nested", "params": {"n": 4}}
CSV_HEADER = "trial,seed,target,tests,stage1,stage2,informative,correct,halted"


def fig1_config(**kw):
    spec = ModelSpec("independent", {"p": [0.5]})
    base = dict(model=spec, algorithm="base", trials=5, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def fig1_files(tmp_path, fig1):
    graph, dist = fig1
    model_path = tmp_path / "fig1.json"
    save_model(str(model_path), graph, dist)
    return str(model_path)


class TestRunExperiment:
    def test_deterministic_results(self, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=40, seed=3, c=0.1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_csv_reproducibility_bytes(self, tmp_path, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=25, seed=9, c=0.1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg), str(p1))
        write_csv(run_experiment(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_fig1_monte_carlo_mean(self, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=1500, seed=0, c=0.1)
        res = run_experiment(cfg)
        s = summarize(res)
        assert abs(s.tests.mean - 1.5) < 0.05
        assert s.wrong == 0

    def test_engine_errors_become_failure_records(self, tmp_path):
        # stage-2 entry sees surviving sizes {1, 2}: the regular variant raises
        from hypergt.model import EdgeDistribution, Hypergraph, save_model

        graph = Hypergraph(2, [[0, 1], [0]])
        dist = EdgeDistribution([0.7, 0.3])
        path = tmp_path / "mixed.json"
        save_model(str(path), graph, dist)
        cfg = ExperimentConfig(model=str(path), algorithm="regular", trials=6, seed=2, c=0.35)
        res = run_experiment(cfg)
        assert len(res) == 6
        assert all(r.error and "NotRegular" in r.error for r in res)
        assert all(not r.correct and r.halted for r in res)

    def test_oracle_algorithm_simulates_policy(self, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="oracle", trials=600, seed=4)
        res = run_experiment(cfg)
        s = summarize(res)
        assert s.wrong == 0
        assert abs(s.tests.mean - 1.5) < 0.1

    def test_snagt_requires_u(self, fig1_files):
        with pytest.raises(ValueError):
            ExperimentConfig(model=fig1_files, algorithm="snagt", trials=1)

    def test_config_json_round_trip(self):
        cfg = ExperimentConfig(model=ModelSpec("nested", {"n": 4}), algorithm="base",
                               trials=3, seed=7, c=0.25)
        doc = json.loads(json.dumps(cfg.to_json()))
        again = ExperimentConfig.from_json(doc)
        assert again == cfg

    @pytest.mark.parametrize("doc,key", [
        ({"model": "m.json", "algorithm": "base", "trails": 3}, "trails"),
        ({"algorithm": "base"}, "model"),
        ({"model": {"params": {"n": 4}}, "algorithm": "base"}, "family"),
        ({"model": {"family": "nested", "param": {}}, "algorithm": "base"}, "param"),
    ])
    def test_config_json_names_the_bad_key(self, doc, key):
        with pytest.raises(SchemaError, match=repr(key)):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("key,value,message", [
        ("trials", "5", "'trials' must be int, not '5'"),
        ("c", "0.3", "'c' must be float, not '0.3'"),
        ("seed", True, "'seed' must be int, not True"),
        ("u", 2.5, "'u' must be int | None, not 2.5"),
        ("algorithm", 3, "'algorithm' must be str, not 3"),
        ("model", 5, "'model' must be ModelSpec | str, not 5"),
        ("output", ["a.csv"], "'output' must be str | None, not ['a.csv']"),
    ])
    def test_config_json_checks_value_types(self, key, value, message):
        doc = {"model": {"family": "nested", "params": {"n": 4}}, "algorithm": "base", key: value}
        with pytest.raises(SchemaError, match=re.escape(f"experiment config: {message}")):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("settings,message", [
        ({"algorithm": "base", "c": 0.7}, "c=0.7 outside (0, 1/2)"),
        ({"algorithm": "noisy_adaptive", "c": 0.0, "delta": 0.1}, "c=0.0 outside (0, 1/2)"),
        ({"algorithm": "base", "delta": 0.5}, "delta=0.5 outside [0, 1/2)"),
        ({"algorithm": "noisy_snagt", "u": 3, "delta": -0.1}, "delta=-0.1 outside [0, 1/2)"),
        ({"algorithm": "snagt", "u": 1}, "u=1 must be >= 2"),
        ({"algorithm": "noisy_snagt", "u": 3, "cap_coeff": 0.0},
         "stop_coeff and cap_coeff must be positive"),
        ({"algorithm": "truncated"}, "truncated variant needs f2 or eps"),
        ({"algorithm": "truncated", "eps": 1.5}, "eps must lie in (0, 1)"),
        ({"algorithm": "truncated", "f2": 1, "eps": 0.1},
         "truncated variant needs f2 or eps, not both"),
        ({"algorithm": "regular", "c": 0.5}, "c=0.5 outside (0, 1/2)"),
        ({"algorithm": "base", "seed": -1}, "seed=-1 must be >= 0"),
        ({"algorithm": "noisy_adaptive", "u": -3}, "u=-3 must be >= 1"),
        ({"algorithm": "noisy_adaptive", "u": 0}, "u=0 must be >= 1"),
        ({"algorithm": "noisy_adaptive", "max_tests": -1},
         "physical-test budget -1 must be >= 1"),
        ({"algorithm": "noisy_adaptive", "alpha": -1.0}, "alpha=-1.0 must be finite and >= 0"),
        ({"algorithm": "noisy_adaptive", "alpha": math.nan}, "alpha=nan must be finite"),
        ({"algorithm": "noisy_snagt", "u": 3, "alpha": math.inf}, "alpha=inf must be finite"),
        ({"algorithm": "noisy_adaptive", "alpha": 1e306, "delta": 0.45},
         "alpha=1e+306 overflows the repetition count"),
        ({"algorithm": "noisy_snagt", "u": 3, "alpha": 1e306, "delta": 0.45},
         "alpha=1e+306 overflows the repetition count"),
        ({"algorithm": "snagt", "u": 3, "stop_coeff": math.nan},
         "stop_coeff and cap_coeff must be positive and finite"),
        ({"algorithm": "noisy_snagt", "u": 3, "cap_coeff": math.inf},
         "stop_coeff and cap_coeff must be positive and finite"),
        ({"algorithm": "base", "delta": 0.3},
         "delta=0.3 applies only to noisy_adaptive and noisy_snagt"),
        ({"algorithm": "oracle", "delta": 0.1},
         "delta=0.1 applies only to noisy_adaptive and noisy_snagt"),
        ({"algorithm": "snagt", "u": 3, "stop_coeff": 1e308},
         "stop_coeff and cap_coeff overflow the test budget at n=4"),
        ({"algorithm": "snagt", "u": 3, "cap_coeff": 1e308},
         "stop_coeff and cap_coeff overflow the test budget at n=4"),
        ({"algorithm": "noisy_snagt", "u": 3, "stop_coeff": 1e308},
         "stop_coeff and cap_coeff overflow the test budget at n=4"),
        ({"algorithm": "noisy_snagt", "u": 3, "cap_coeff": 1e308},
         "stop_coeff and cap_coeff overflow the test budget at n=4"),
    ], ids=["base-c", "noisy-c", "delta-half", "negative-delta", "snagt-u", "cap-coeff",
            "truncated-no-cut", "truncated-eps", "truncated-f2-and-eps", "regular-c",
            "negative-seed", "negative-u", "zero-u", "negative-max-tests", "negative-alpha",
            "nan-alpha", "infinite-alpha", "alpha-overflowing-at-n-adaptive",
            "alpha-overflowing-at-n-snagt", "nan-stop-coeff", "infinite-cap-coeff",
            "noiseless-delta", "oracle-delta", "stop-coeff-overflowing-at-n-snagt",
            "cap-coeff-overflowing-at-n-snagt", "stop-coeff-overflowing-at-n-noisy-snagt",
            "cap-coeff-overflowing-at-n-noisy-snagt"])
    def test_bad_engine_settings_are_refused_before_the_first_trial(self, settings, message):
        with pytest.raises(SchemaError, match=re.escape(f"experiment config: {message}")):
            run_experiment(ExperimentConfig(model=ModelSpec("nested", {"n": 4}), trials=3,
                                            **settings))

    @pytest.mark.parametrize("settings", [
        {"algorithm": "snagt", "u": 10 ** 400},
        {"algorithm": "noisy_snagt", "u": 10 ** 400},
        {"algorithm": "noisy_adaptive", "u": 10 ** 400},
        {"algorithm": "snagt", "u": 2 ** 70},
        {"algorithm": "noisy_adaptive", "u": NODE_CAP + 1},
    ], ids=["snagt-huge-u", "noisy-snagt-huge-u", "noisy-adaptive-huge-u", "snagt-2-to-the-70",
            "noisy-adaptive-cap-plus-one"])
    def test_u_above_the_node_cap_is_refused_when_built(self, settings):
        # Checked where the config is built: a run with such a u would overflow a float
        # or, at 2^70, not finish.
        message = f"experiment config: u exceeds NODE_CAP={NODE_CAP}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            ExperimentConfig(model=ModelSpec("nested", {"n": 4}), trials=3, **settings)

    @pytest.mark.parametrize("setting", ['"alpha": NaN', '"cap_coeff": Infinity'])
    def test_json_nan_and_infinity_are_refused(self, setting):
        text = ('{"model": {"family": "nested", "params": {"n": 4}}, '
                f'"algorithm": "noisy_snagt", "u": 3, {setting}}}')
        with pytest.raises(SchemaError, match="must be"):
            ExperimentConfig.from_json(parse_json(text, "config"))


class TestCsv:
    def test_round_trip(self, tmp_path, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=10, seed=5, c=0.1)
        res = run_experiment(cfg)
        path = tmp_path / "r.csv"
        write_csv(res, str(path))
        loaded = read_csv(str(path))
        for a, b in zip(res, loaded):
            assert (a.trial, a.seed, a.target, a.tests, a.stage1, a.stage2,
                    a.informative, a.correct, a.halted) == \
                   (b.trial, b.seed, b.target, b.tests, b.stage1, b.stage2,
                    b.informative, b.correct, b.halted)

    def test_column_header(self, tmp_path, fig1_files):
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=1, seed=5, c=0.1)
        path = tmp_path / "r.csv"
        write_csv(run_experiment(cfg), str(path))
        header = path.read_text().splitlines()[0]
        assert header == "trial,seed,target,tests,stage1,stage2,informative,correct,halted,error"

    def test_errors_round_trip(self, tmp_path):
        cfg = ExperimentConfig(model=ModelSpec("cosize", {"n": 8}), algorithm="snagt",
                               trials=2, seed=0, u=2)
        res = run_experiment(cfg)
        path = tmp_path / "r.csv"
        write_csv(res, str(path))
        assert [r.error for r in read_csv(str(path))] == [r.error for r in res]
        assert all("EmptySupport" in r.error for r in res)
        ok = run_experiment(fig1_config(trials=1))
        write_csv(ok, str(path))
        assert read_csv(str(path))[0].error is None

    @pytest.mark.parametrize("text,message", [
        ("trial,seed,target,stage1,stage2,informative,correct,halted\n0,1,2,2,1,2,1,0\n",
         "lacks column 'tests'"),
        (CSV_HEADER + "\n0,1,2,3,2,1,2,1,0\n1,1,2,x,2,1,2,1,0\n", "row 2 column 'tests'"),
        (CSV_HEADER + "\n0,1,2,3,2,1\n", "row 1 column 'informative'"),
    ], ids=["missing-column", "not-an-integer", "short-row"])
    def test_read_names_the_bad_cell(self, tmp_path, text, message):
        path = tmp_path / "r.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            read_csv(str(path))

    def test_error_column_is_optional(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\n0,1,2,3,2,1,2,1,0\n")
        [r] = read_csv(str(path))
        assert (r.tests, r.correct, r.halted, r.error) == (3, True, False, None)


class TestSummarize:
    def test_single_trial(self):
        r = TrialResult(0, 0, 0, tests=4, stage1=3, stage2=1, informative=3,
                        correct=True, halted=False)
        s = summarize([r])
        assert s.tests.mean == 4 and s.tests.stderr == 0.0
        assert s.error_rate == 0.0

    def test_pair_mean_and_stderr(self):
        rows = [TrialResult(i, 0, 0, tests=t, stage1=t, stage2=0, informative=0,
                            correct=True, halted=False) for i, t in enumerate((3, 5))]
        s = summarize(rows)
        assert s.tests.mean == 4.0
        assert s.tests.stderr == pytest.approx(1.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_errors_are_counted_by_type(self, tmp_path):
        errors = [None, "OracleInconsistent('no edge')", "ValueError('math domain error')",
                  "OracleInconsistent('every edge complement tested positive')", None]
        rows = [TrialResult(i, 0, 0, tests=0, stage1=0, stage2=0, informative=0,
                            correct=e is None, halted=e is not None, error=e)
                for i, e in enumerate(errors)]
        expected = {"OracleInconsistent": 2, "ValueError": 1}
        assert summarize(rows).errors == expected
        path = str(tmp_path / "out.csv")
        write_csv(rows, path)
        assert summarize(read_csv(path)).errors == expected
        assert summarize(rows[:1]).errors == {}


class TestCheckBounds:
    def test_fig1_base_passes(self, fig1, fig1_files):
        graph, dist = fig1
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=500, seed=1, c=0.1)
        res = run_experiment(cfg, graph, dist)
        report = check_bounds(graph, dist, res, cfg)
        assert report.all_passed
        assert report.entropy == pytest.approx(1.48548, abs=1e-5)

    def test_cosize_flags_loose_entropy(self):
        cfg = ExperimentConfig(model=ModelSpec("cosize", {"n": 8}), algorithm="base",
                               trials=300, seed=2, c=0.2)
        graph, dist = resolve_model(cfg)
        res = run_experiment(cfg, graph, dist)
        report = check_bounds(graph, dist, res, cfg)
        assert report.all_passed
        assert any("entropy floor is loose" in n for n in report.notes)
        # equal edge sizes: the size-band bound applies and holds
        assert any(c.name == "total tests (size-band form)" and c.passed
                   for c in report.checks)

    def test_point_mass_is_trivially_fine(self):
        from hypergt.model import EdgeDistribution, Hypergraph

        graph = Hypergraph(3, [[0, 1], [2]])
        dist = EdgeDistribution([1.0, 0.0])
        cfg = ExperimentConfig(model=ModelSpec("nested", {"n": 3}), algorithm="base",
                               trials=20, seed=0, c=0.3)
        res = run_experiment(cfg, graph, dist)
        report = check_bounds(graph, dist, res, cfg)
        assert report.all_passed
        assert summarize(res).tests.mean == 0.0

    def test_mismatched_trial_count(self, fig1, fig1_files):
        graph, dist = fig1
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=10, seed=1, c=0.1)
        res = run_experiment(cfg, graph, dist)
        with pytest.raises(MismatchedConfig):
            check_bounds(graph, dist, res[:-1], cfg)

    def test_truncated_report(self):
        cfg = ExperimentConfig(model=ModelSpec("islands", {"k": 4, "m": 2, "p": 0.5}),
                               algorithm="truncated", trials=400, seed=3, c=1 / 3, eps=0.2)
        graph, dist = resolve_model(cfg)
        res = run_experiment(cfg, graph, dist)
        report = check_bounds(graph, dist, res, cfg)
        assert report.all_passed

    def test_report_renders(self, fig1, fig1_files):
        graph, dist = fig1
        cfg = ExperimentConfig(model=fig1_files, algorithm="base", trials=50, seed=1, c=0.1)
        res = run_experiment(cfg, graph, dist)
        text = check_bounds(graph, dist, res, cfg).to_text()
        assert "H(X)" in text and "pass" in text


class TestCli:
    def test_full_pipeline(self, tmp_path):
        model_path = tmp_path / "model.json"
        rc = cli_main(["build-model", "--family", "islands",
                       "--params", '{"k": 3, "m": 2, "p": 0.5}',
                       "--out", str(model_path)])
        assert rc == 0 and model_path.exists()

        config_path = tmp_path / "cfg.json"
        csv_path = tmp_path / "out.csv"
        config_path.write_text(json.dumps({
            "model": str(model_path), "algorithm": "base", "trials": 30,
            "seed": 11, "c": 0.25, "output": str(csv_path)}))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert csv_path.exists()

        assert cli_main(["check", "--config", str(config_path), "--csv", str(csv_path)]) == 0

        policy_path = tmp_path / "policy.txt"
        assert cli_main(["oracle", "--model", str(model_path),
                         "--policy", str(policy_path)]) == 0
        assert "test" in policy_path.read_text()

        transcript_path = tmp_path / "tr.json"
        transcript_path.write_text(json.dumps([{"query": [0, 1], "outcome": True}]))
        out_path = tmp_path / "post.json"
        assert cli_main(["posterior", "--model", str(model_path),
                         "--transcript", str(transcript_path),
                         "--out", str(out_path)]) == 0
        dump = json.loads(out_path.read_text())
        assert abs(sum(dump["q"]) - 1.0) < 1e-9

    def test_posterior_without_out_prints_the_dump(self, tmp_path, fig1_files, capsys):
        transcript_path = tmp_path / "tr.json"
        transcript_path.write_text(json.dumps([{"query": [1, 3], "outcome": True}]))
        out_path = tmp_path / "post.json"
        argv = ["posterior", "--model", fig1_files, "--transcript", str(transcript_path)]
        assert cli_main(argv + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        printed = capsys.readouterr()
        assert printed.err == "" and printed.out == out_path.read_text()
        assert json.loads(printed.out)["q"] == pytest.approx([3 / 8, 0.0, 5 / 8], abs=1e-12)

    def test_build_model_spec_needs_a_family(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"params": {"n": 4}}))
        assert cli_main(["build-model", "--spec", str(spec_path),
                         "--out", str(tmp_path / "m.json")]) == 2
        assert re.fullmatch("hypergt: .*'family'\n", capsys.readouterr().err)

    @pytest.mark.parametrize("site", ["params", "spec", "config", "transcript"])
    def test_malformed_json_names_its_source_and_position(self, tmp_path, fig1_files, site,
                                                          capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        out = str(tmp_path / "out")
        argv, what = {
            "params": (["build-model", "--family", "nested", "--params", "{n:4}", "--out", out],
                       "--params"),
            "spec": (["build-model", "--spec", str(bad), "--out", out], f"model spec {bad}"),
            "config": (["run", "--config", str(bad)], f"config file {bad}"),
            "transcript": (["posterior", "--model", fig1_files, "--transcript", str(bad)],
                           f"transcript {bad}"),
        }[site]
        assert cli_main(argv) == 2
        assert re.fullmatch("hypergt: " + re.escape(f"{what} is not valid JSON")
                            + ".*line 1 column 2.*\n", capsys.readouterr().err)

    @pytest.mark.parametrize("doc,error,message", [
        ([{"outcome": True}], SchemaError, "transcript record 0 lacks key 'query'"),
        ([{"query": [0], "outcome": True}, {"query": [1]}], SchemaError,
         "record 1 lacks key 'outcome'"),
        ([{"query": [0], "outcome": True, "votes": 3}], SchemaError, "unknown key 'votes'"),
        ({"records": [{"query": [0], "outcome": True}]}, SchemaError, "JSON list"),
        ([{"query": [0], "outcome": True}, {"query": [-1], "outcome": True}], NodeOutOfRange,
         "transcript record 1 "),
        ([{"query": "ab", "outcome": True}], SchemaError, "transcript record 0 "),
        ([{"query": [1.5], "outcome": False}], SchemaError, "transcript record 0 "),
        ([{"query": [9], "outcome": True}], NodeOutOfRange, "transcript record 0 "),
        ([{"query": [0], "outcome": "no"}], SchemaError, "transcript record 0 "),
    ], ids=["no-query", "no-outcome", "unknown-key", "not-a-list", "negative-node",
            "string-query", "float-node", "node-out-of-range", "string-outcome"])
    def test_posterior_checks_transcript_records(self, tmp_path, fig1_files, doc, error, message,
                                                 capsys):
        transcript_path = tmp_path / "tr.json"
        transcript_path.write_text(json.dumps(doc))
        with pytest.raises(error, match=message) as info:
            cli.cmd_posterior(argparse.Namespace(model=fig1_files, transcript=str(transcript_path),
                                                 delta=0.0, out=None))
        assert type(info.value) is error
        assert cli_main(["posterior", "--model", fig1_files,
                         "--transcript", str(transcript_path)]) == 2
        assert capsys.readouterr().err == f"hypergt: {info.value}\n"

    @pytest.mark.parametrize("argv,files,message", [
        (["build-model", "--family", "nested", "--params", "{n:4}", "--out", "m.json"], {},
         "--params is not valid JSON"),
        (["run", "--config", "cfg.json", "--out", "out.csv"],
         {"cfg.json": {"model": NESTED4, "algorithm": "base", "c": 0.7}},
         "experiment config: c=0.7 outside (0, 1/2)"),
        (["check", "--config", "cfg.json", "--csv", "res.csv"],
         {"cfg.json": {"model": NESTED4, "algorithm": "base", "trials": 5},
          "res.csv": CSV_HEADER + "\n" + "0,1,0,1,1,0,0,1,0\n" * 3},
         "3 results for a config with trials=5"),
        (["oracle", "--model", "missing.json"], {},
         "[Errno 2] No such file or directory: 'missing.json'"),
        (["oracle", "--model", "nested20.json"], {"nested20.json": ModelSpec("nested", {"n": 20})},
         "20 supported edges > 14"),
        (["run", "--config", "cfg.json", "--out", "out.csv"],
         {"cfg.json": {"model": {"family": "nested", "params": {"n": 20}},
                       "algorithm": "oracle"}},
         "20 supported edges > 14"),
        (["run", "--config", "cfg.json", "--out", "out.csv"],
         {"cfg.json": {"model": NESTED4, "algorithm": "base", "seed": -1}},
         "experiment config: seed=-1 must be >= 0"),
        (["run", "--config", "cfg.json", "--out", "missing/out.csv"],
         {"cfg.json": {"model": NESTED4, "algorithm": "base"}},
         "[Errno 2] No such file or directory: 'missing/out.csv'"),
        (["run", "--config", "cfg.json", "--out", "out.csv"],
         {"cfg.json": {"model": "empty.json", "algorithm": "snagt", "u": 2},
          "empty.json": {"n": 0, "edges": [[]], "probs": [1.0]}},
         "experiment config: the survival threshold ceil(stop_coeff u log2 n) is undefined at n=0"),
        (["run", "--config", "cfg.json", "--out", "out.csv"],
         {"cfg.json": {"model": "empty.json", "algorithm": "noisy_adaptive", "delta": 0.1},
          "empty.json": {"n": 0, "edges": [[]], "probs": [1.0]}},
         "experiment config: the repetition count needs x >= 1 (x is n, u log2 n or u n), got x=0"),
        (["posterior", "--model", "m.json", "--transcript", "tr.json", "--delta", "-0.5"],
         {"m.json": ModelSpec("nested", {"n": 4}), "tr.json": [{"query": [0], "outcome": True}]},
         "delta=-0.5 outside [0, 1/2)"),
        (["run", "--config", "cfg.json"], {"cfg.json": {"model": NESTED4, "algorithm": "base"}},
         "no output path: give --out or set output in the config"),
    ], ids=["malformed-params", "config-c-out-of-range", "check-trial-count",
            "oracle-missing-model", "oracle-too-large", "run-oracle-too-large",
            "negative-seed", "out-in-missing-directory", "snagt-on-zero-nodes",
            "noisy-adaptive-on-zero-nodes", "posterior-negative-delta", "run-without-output"])
    def test_bad_input_exits_2_without_a_traceback(self, tmp_path, argv, files, message):
        for name, content in files.items():
            if isinstance(content, ModelSpec):
                save_model(str(tmp_path / name), *build_model(content))
            else:
                text = content if isinstance(content, str) else json.dumps(content)
                (tmp_path / name).write_text(text)
        src = str(Path(hypergt.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "hypergt.cli", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith(f"hypergt: {message}")
        assert done.stderr.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("settings,message", [
        ({"algorithm": "bogus"}, "unknown algorithm 'bogus'"),
        ({"algorithm": "base", "c": 0.7}, "c=0.7 outside (0, 1/2)"),
        ({"algorithm": "snagt"}, "snagt needs u"),
        ({"algorithm": "snagt", "u": 3, "stop_coeff": 1e308},
         "stop_coeff and cap_coeff overflow the test budget at n=6"),
        ({"model": {"family": "independent", "params": {"p": []}}, "algorithm": "snagt", "u": 3},
         "the survival threshold ceil(stop_coeff u log2 n) is undefined at n=0"),
        ({"algorithm": "base", "u": 3},
         "u=3 applies only to snagt, noisy_adaptive and noisy_snagt"),
    ], ids=["unknown-algorithm", "c-out-of-range", "snagt-without-u", "overflow-at-n",
            "snagt-on-zero-nodes", "unread-setting"])
    def test_check_refuses_a_config_no_run_accepts(self, tmp_path, capsys, settings, message):
        nested6 = {"family": "nested", "params": {"n": 6}}
        base, bad, csv_path = tmp_path / "base.json", tmp_path / "bad.json", tmp_path / "base.csv"
        base.write_text(json.dumps({"model": nested6, "algorithm": "base", "trials": 3}))
        bad.write_text(json.dumps({"model": nested6, "trials": 3, **settings}))
        assert cli_main(["run", "--config", str(base), "--out", str(csv_path)]) == 0
        capsys.readouterr()
        assert cli_main(["check", "--config", str(bad), "--csv", str(csv_path)]) == 2
        assert capsys.readouterr() == ("", f"hypergt: experiment config: {message}\n")

    def test_check_searches_the_oracle_policy_once(self, tmp_path, monkeypatch):
        calls = []
        search = harness.optimal_expected_tests
        monkeypatch.setattr(harness, "optimal_expected_tests",
                            lambda *a: calls.append(1) or search(*a))
        config_path, csv_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        config_path.write_text(json.dumps({"model": NESTED4, "algorithm": "oracle", "trials": 3}))
        assert cli_main(["run", "--config", str(config_path), "--out", str(csv_path)]) == 0
        assert cli_main(["check", "--config", str(config_path), "--csv", str(csv_path)]) == 0
        assert len(calls) == 2  # once per command

    @pytest.mark.parametrize("settings,message", [
        ({"algorithm": "base", "max_tests": 0}, "max_tests=0 applies only to noisy_adaptive"),
        ({"algorithm": "base", "u": 0},
         "u=0 applies only to snagt, noisy_adaptive and noisy_snagt"),
        ({"algorithm": "base", "f2": 0}, "f2=0 applies only to truncated"),
        ({"algorithm": "base", "eps": 5.0}, "eps=5.0 applies only to truncated"),
        ({"algorithm": "base", "alpha": -1.0},
         "alpha=-1.0 applies only to noisy_adaptive and noisy_snagt"),
        ({"algorithm": "snagt", "u": 3, "c": 0.25},
         "c=0.25 applies only to base, truncated, regular and noisy_adaptive"),
        ({"algorithm": "oracle", "u": 3},
         "u=3 applies only to snagt, noisy_adaptive and noisy_snagt"),
    ], ids=["base-max-tests", "base-u", "base-f2", "base-eps", "base-alpha", "snagt-c", "oracle-u"])
    def test_run_refuses_a_setting_its_algorithm_does_not_read(self, tmp_path, capsys, settings,
                                                              message):
        config_path, csv_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        config_path.write_text(json.dumps({"model": NESTED4, **settings}))
        assert cli_main(["run", "--config", str(config_path), "--out", str(csv_path)]) == 2
        assert capsys.readouterr() == ("", f"hypergt: experiment config: {message}\n")
        assert not csv_path.exists()

    def test_run_checks_its_output_directory_before_the_first_trial(self, tmp_path, capsys,
                                                                     monkeypatch):
        def no_trials(config):
            raise AssertionError("run_experiment was reached")

        monkeypatch.setattr(cli, "run_experiment", no_trials)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"model": NESTED4, "algorithm": "base"}))
        out = str(tmp_path / "missing" / "out.csv")
        assert cli_main(["run", "--config", str(config_path), "--out", out]) == 2
        assert capsys.readouterr().err == f"hypergt: [Errno 2] No such file or directory: {out!r}\n"

    def test_run_fails_when_a_trial_errors(self, tmp_path, capsys):
        # Every edge of cosize(8) has size 7 > u, so each trial raises EmptySupport.
        config_path = tmp_path / "cfg.json"
        csv_path = tmp_path / "out.csv"
        config_path.write_text(json.dumps({
            "model": {"family": "cosize", "params": {"n": 8}}, "algorithm": "snagt",
            "trials": 3, "u": 2}))
        assert cli_main(["run", "--config", str(config_path), "--out", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("3 of 3 trials raised an error (EmptySupport: 3), first EmptySupport(")
        assert all("EmptySupport" in r.error for r in read_csv(str(csv_path)))

"""Command-line front end.

Subcommands: build-model (model spec -> model file), run (experiment config
-> results CSV), oracle (model file -> optimal value and policy), check
(config + CSV -> bound report), posterior (model + transcript -> posterior
dump). Exit codes: 0 success, 1 a run with failed trials or a failed bound
check, 2 bad input (a ModelError or a file that cannot be read or written,
printed as one line on stderr).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .builders import ModelSpec, build_model
from .errors import ModelError, SchemaError
from .harness import (
    ExperimentConfig,
    check_bounds,
    read_csv,
    resolve_model,
    run_experiment,
    summarize,
    write_csv,
)
from .model import (
    edge_entropy,
    expected_infections,
    load_model,
    node_marginals,
    parse_json,
    prior_posterior,
    save_model,
)
from .oracle import direct_posterior, optimal_expected_tests
from .transcript import read_records


def _check_dir(path: str | None) -> None:
    """A mistyped output directory fails here, before any work is done."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(parse_json(fh.read(), f"config file {path}"))


def cmd_build_model(args) -> int:
    _check_dir(args.out)
    if args.spec:
        what = f"model spec {args.spec}"
        with open(args.spec) as fh:
            spec = ModelSpec.from_json(parse_json(fh.read(), what), what)
    else:
        spec = ModelSpec(args.family, parse_json(args.params, "--params"))
    graph, dist = build_model(spec)
    save_model(args.out, graph, dist)
    print(f"wrote {args.out}: n={graph.n}, |E|={len(graph)}, "
          f"H={edge_entropy(dist):.5f} bits, mu={expected_infections(prior_posterior(graph, dist)):.5f}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config)
    out = args.out or config.output
    if not out:
        raise SchemaError("no output path: give --out or set output in the config")
    _check_dir(out)
    results = run_experiment(config)
    write_csv(results, out)
    s = summarize(results)
    print(f"wrote {out}: {s.count} trials, mean tests {s.tests.mean:.4f} "
          f"(stderr {s.tests.stderr:.4f}), error rate {s.error_rate:.4f}, "
          f"halt rate {s.halt_rate:.4f}")
    failed = [r.error for r in results if r.error is not None]
    if failed:
        kinds = ", ".join(f"{kind}: {count}" for kind, count in sorted(s.errors.items()))
        print(f"{len(failed)} of {s.count} trials raised an error ({kinds}), first {failed[0]}",
              file=sys.stderr)
        return 1
    return 0


def cmd_oracle(args) -> int:
    _check_dir(args.policy)
    graph, dist = load_model(args.model)
    value, policy = optimal_expected_tests(graph, dist)
    print(f"optimal expected tests: {value:.6f}")
    print(f"entropy H(X): {edge_entropy(dist):.6f} bits")
    if args.policy:
        with open(args.policy, "w") as fh:
            fh.write(policy.to_text())
        print(f"wrote policy tree to {args.policy}")
    return 0


def cmd_check(args) -> int:
    config = _load_config(args.config)
    graph, dist = resolve_model(config)
    results = read_csv(args.csv)
    report = check_bounds(graph, dist, results, config)
    print(report.to_text())
    return 0 if report.all_passed else 1


def cmd_posterior(args) -> int:
    _check_dir(args.out)
    graph, dist = load_model(args.model)
    what = f"transcript {args.transcript}"
    with open(args.transcript) as fh:
        transcript = read_records(parse_json(fh.read(), what), graph.n, what)
    post = direct_posterior(graph, dist, transcript, delta=args.delta)
    dump = {
        "q": [float(x) for x in post.q],
        "marginals": [float(x) for x in node_marginals(post)],
        "expected_infections": expected_infections(post),
    }
    text = json.dumps(dump, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hypergt",
                                     description="group testing with correlated infections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-model", help="build a model file from a family spec")
    p.add_argument("--spec", help="JSON file with {family, params}")
    p.add_argument("--family", help="family name (with --params)")
    p.add_argument("--params", default="{}", help="JSON parameter record")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_model)

    p = sub.add_parser("run", help="run an experiment config to a results CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="optimal policy value for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", help="write the decision tree here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="bound report for a results CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("posterior", help="posterior after a transcript file")
    p.add_argument("--model", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_posterior)

    args = parser.parse_args(argv)
    if args.command == "build-model" and not args.spec and not args.family:
        parser.error("build-model needs --spec or --family")
    try:
        return args.func(args)
    except (ModelError, OSError) as exc:
        print(f"hypergt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

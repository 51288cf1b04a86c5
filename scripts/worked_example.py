#!/usr/bin/env python3
"""Walk the five-node example end to end: prior statistics, a conditioning
step, the adaptive run for every possible target, and the exact optimum."""

import numpy as np

from hypergt import (
    AdaptiveConfig,
    EdgeDistribution,
    Hypergraph,
    condition_on_test,
    edge_entropy,
    expected_infections,
    node_marginals,
    noiseless_oracle,
    optimal_expected_tests,
    prior_posterior,
    run_adaptive,
)
from hypergt.model import GroundTruth

graph = Hypergraph(5, [[0, 1, 2], [0, 4], [3, 4]])
dist = EdgeDistribution([0.3, 0.2, 0.5])

post = prior_posterior(graph, dist)
print("edges:", [graph.edge_nodes(i) for i in range(len(graph))])
print("prior mass:", dist.probs)
print("node marginals:", np.round(node_marginals(post), 4))
print(f"H(X) = {edge_entropy(dist):.5f} bits, mu = {expected_infections(post):.3f}")

step = condition_on_test(post, [1, 3], True)
print("\nafter a positive test on nodes {1, 3}:")
print("posterior:", np.round(step.q, 4))
print("node marginals:", np.round(node_marginals(step), 4))

print("\nadaptive runs (c = 0.1), one per target:")
expected = 0.0
for i, p in enumerate(dist.probs):
    truth = GroundTruth(i, graph.edge_masks[i])
    tr = run_adaptive(graph, dist, noiseless_oracle(truth), AdaptiveConfig(c=0.1))
    seq = ", ".join(f"{r.query}{'+' if r.outcome else '-'}" for r in tr.records)
    print(f"  target {graph.edge_nodes(i)}: {tr.total} tests  [{seq}]")
    expected += p * tr.total
print(f"expected tests, weighted by the prior: {expected}")

value, policy = optimal_expected_tests(graph, dist)
print(f"\nexact optimum over all zero-error policies: {value}")
print(policy.to_text())

import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_for,
    random_model,
    reference_membership,
    reference_split_scan,
    reference_step_scan,
    truth_for,
)
import hypergt
import hypergt.adaptive as adaptive
from hypergt.adaptive import (
    AdaptiveConfig,
    _exact_partials,
    _Exact,
    _split_scan,
    find_split_set,
    resolve_f2,
    run_adaptive,
)
from hypergt.builders import (
    build_cosize,
    build_model,
    build_nested,
    build_partial_regular,
    build_random_regular,
)
from hypergt.errors import NotRegular, OracleInconsistent, SchemaError
from hypergt.model import (
    EdgeDistribution,
    Hypergraph,
    certain_edge,
    condition_on_test,
    edge_entropy,
    expected_infections,
    node_marginals,
    prior_posterior,
)
from hypergt.noisy import bayes_update_noisy
from hypergt.oracle import direct_posterior
from hypergt.sets import intersects, mask_from_flags, mask_of, nodes_of
from hypergt.transcript import RESIDUAL, SPLIT
from test_golden import MODELS as GOLDEN_MODELS


def enumerate_targets(graph, dist, config):
    """Run once per target; yields (target, prior mass, transcript)."""
    for i, p in enumerate(dist.probs):
        yield i, p, run_adaptive(graph, dist, oracle_for(graph, i), config)


class TestConfig:
    def test_c_domain(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(c=0.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(c=0.0)

    def test_truncated_needs_cut(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(variant="truncated", c=0.3)
        with pytest.raises(ValueError):
            AdaptiveConfig(variant="truncated", c=0.4, f2=3)
        AdaptiveConfig(variant="truncated", c=1 / 3, f2=3)

    @pytest.mark.parametrize("settings,message", [
        ({"variant": "x"}, "unknown variant 'x'"),
        ({"variant": "truncated", "f2": 0}, "f2 must be >= 1"),
    ], ids=["unknown-variant", "zero-f2"])
    def test_variant_settings_are_refused(self, settings, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            AdaptiveConfig(**settings)

    def test_f2_from_eps(self, fig1):
        cfg = AdaptiveConfig(variant="truncated", c=0.3, eps=0.1)
        # mu = 2.3, so the cutoff is ceil(23)
        assert resolve_f2(cfg, *fig1) == 23


class TestFindSplitSet:
    def test_fig1_first_pick_is_v1(self, fig1):
        post = prior_posterior(*fig1)
        s, found = find_split_set(post, 0.1)
        assert found
        assert nodes_of(s) == (1, 2, 3, 4)

    def test_cosize8_has_no_split(self):
        g, d = build_cosize(8)
        s, found = find_split_set(prior_posterior(g, d), 0.2)
        assert not found
        assert nodes_of(s) == tuple(range(8))

    def test_point_mass_has_no_split(self):
        g = Hypergraph(4, [[1, 2], [0]])
        post = prior_posterior(g, EdgeDistribution([1.0, 0.0]))
        s, found = find_split_set(post, 0.2)
        assert not found
        assert nodes_of(s) == (1, 2)

    def test_window_is_strict_at_the_boundary(self):
        # every single-removal weight equals c exactly: no split is reported
        g, d = build_partial_regular(5, 4)
        s, found = find_split_set(prior_posterior(g, d), 0.2)
        assert not found

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_boundary_ties_match_exact_arithmetic(self, data):
        # Mass 1/k on k of m edges, with c*k whole: many w(S minus v) then sit
        # within an ulp of c or 1-c, where a rounded sum can take either side.
        c, step = data.draw(st.sampled_from([(1.0 / 3.0, 3), (0.45, 20)]))
        k = step * data.draw(st.integers(1, 12 if step == 3 else 2))
        n = data.draw(st.integers(6, 8))
        masks = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=k, max_size=k + 5,
                                   unique=True))
        probs = [1.0 / k] * k + [0.0] * (len(masks) - k)
        post = prior_posterior(Hypergraph(n, masks), EdgeDistribution(probs))
        assert find_split_set(post, c) == reference_split_scan(post, c)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_loop_posteriors_match_exact_arithmetic(self, data):
        # The loop scans conditioned posteriors: noiseless steps leave exact
        # zeros and a shrinking active set, noisy steps leave no zeros. With
        # n > 64 an edge's nodes span more than one packed word.
        c = data.draw(st.sampled_from([1.0 / 3.0, 0.45, 0.2]))
        n = data.draw(st.sampled_from([6, 8, 70, 130]))
        node_set = st.lists(st.integers(0, n - 1), max_size=6).map(mask_of)
        masks = data.draw(st.lists(node_set, min_size=3, max_size=14, unique=True))
        k = len(masks)
        if data.draw(st.booleans()):
            weights = [1.0] * k
        else:
            weights = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        graph = Hypergraph(n, masks)
        post = prior_posterior(graph, EdgeDistribution(np.array(weights) / sum(weights)))
        target = masks[data.draw(st.integers(0, k - 1))]
        delta = data.draw(st.sampled_from([0.0, 0.05, 0.2]))
        for _ in range(data.draw(st.integers(1, 6))):
            t = data.draw(node_set)
            outcome = bool(t & target)
            if delta:
                post = bayes_update_noisy(post, t, data.draw(st.booleans()), delta)
            else:
                post = condition_on_test(post, t, outcome)
        assert find_split_set(post, c) == reference_split_scan(post, c)


def _regular_model(n, skewed):
    graph, dist = build_random_regular(n, 3, count=10 * n, seed=n)
    if not skewed:
        return graph, dist
    weights = np.random.default_rng(n).pareto(1.0, len(graph)) + 1e-3
    return graph, EdgeDistribution(weights / weights.sum())


class TestBatchedScan:
    """The scan drops provably-high nodes in batches; the one-node-per-step
    loop it replaced, `reference_step_scan`, must give the same set."""

    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("n", [64, 200, 500])
    def test_matches_one_node_per_step(self, n, skewed):
        graph, dist = _regular_model(n, skewed)
        rng = np.random.default_rng(1000 * n + skewed)
        calls = []

        def counted(q, edges=None):
            calls.append(edges)
            return Hypergraph.node_mass(graph, q, edges)

        removed = steps = 0
        for case in range(12):
            post = prior_posterior(graph, dist)
            target = graph.edge_masks[int(rng.choice(len(graph), p=dist.probs))]
            delta = (0.0, 0.05)[case % 2]
            for _ in range(int(rng.integers(1, 9)) if case else 0):
                t = mask_from_flags(rng.random(n) < rng.choice([0.01, 0.05, 0.2]))
                if delta:
                    post = bayes_update_noisy(post, t, bool(rng.random() < 0.5), delta)
                else:
                    post = condition_on_test(post, t, bool(t & target))
            marg = node_marginals(post)
            active = marg > 0.0 if case % 3 else np.ones(n, dtype=bool)
            for c in (0.2, 1.0 / 3.0, 0.45):
                s_ref, found_ref, w_ref = reference_step_scan(post.q, marg, graph, active, c)
                calls.clear()
                graph.node_mass = counted
                try:
                    s, found, w, _ = _split_scan(post.q, marg, graph, active, c)
                finally:
                    del graph.node_mass
                assert np.array_equal(s, s_ref) and found == found_ref
                assert abs(w - w_ref) <= 1e-12
                # A found window drops one more node, outside any step.
                removed += int(active.sum() - s.sum()) - found
                steps += len(calls)
        assert steps < removed  # some step dropped two or more nodes

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("n", [64, 200, 500])
    def test_exact_partials_decide_as_the_full_sums_do(self, n, noisy, monkeypatch):
        # A uniform prior, conditioned exactly, leaves removal weights tied
        # exactly at c or 1-c; noisy updates spread the masses over so many
        # exponents that the exact sum of w(S) takes three or more partials
        # (uniform masses take two).
        graph, dist = _regular_model(n, False)
        rng = np.random.default_rng(n + noisy)
        c = 1.0 / 3.0
        scanned = []

        def counted(values):
            scanned.append(_exact_partials(values))
            return scanned[-1]

        monkeypatch.setattr(adaptive, "_exact_partials", counted)
        counts = []
        for case in range(9):
            post = prior_posterior(graph, dist)
            target = graph.edge_masks[int(rng.integers(len(graph)))]
            for _ in range(int(rng.integers(20, 41)) if noisy else case):
                t = mask_from_flags(rng.random(n) < rng.choice([0.01, 0.05, 0.2]))
                if noisy:
                    post = bayes_update_noisy(post, t, bool(t & target) != (rng.random() < 0.05), 0.05)
                else:
                    post = condition_on_test(post, t, bool(t & target))
            # Every node of S = {v : q_v > 0} against both bounds, value for
            # value: the partials and the full in-S list sum to the same
            # exact number, which fsum rounds once.
            live = post.q != 0.0
            in_s = post.q[live].tolist()
            partials = _exact_partials(in_s)
            assert sum(map(Fraction, partials)) == sum(map(Fraction, in_s))
            counts.append(len(partials))
            marg = node_marginals(post)
            for v in np.flatnonzero(marg > 0.0).tolist():
                through = (-post.q[live & intersects(graph.words, 1 << v)]).tolist()
                for bound in (c, 1.0 - c):
                    assert math.fsum(partials + through + [-bound]) == \
                        math.fsum(in_s + through + [-bound])
            s, found, w, _ = _split_scan(post.q, marg, graph, marg > 0.0, c)
            s_ref, found_ref, w_ref = reference_step_scan(post.q, marg, graph, marg > 0.0, c)
            assert np.array_equal(s, s_ref) and found == found_ref and w == w_ref
        if noisy:
            assert max(counts) >= 3
        else:
            assert scanned  # some step decided a node within _TOL of a bound


class TestConditionFromScan:
    """The noiseless observer conditions a stage-1 test on the scan's in-S
    masses; it must give the posterior and the removed mass that conditioning
    on the test mask gives."""

    def test_matches_the_word_kernel_on_the_golden_models(self):
        kinds = set()
        for spec, c in GOLDEN_MODELS.values():
            graph, dist = build_model(spec)
            for target in np.flatnonzero(dist.probs)[::7][:12].tolist():
                post = prior_posterior(graph, dist)
                active = np.ones(graph.n, dtype=bool)
                while certain_edge(post) is None:
                    marg = node_marginals(post)
                    s, found, _, in_s = _split_scan(post.q, marg, graph, active, c)
                    t = mask_from_flags(active & ~s)
                    if not t:
                        break
                    stage = SPLIT if found else RESIDUAL
                    kinds.add(stage)
                    for outcome in (False, True):
                        scan = _Exact(lambda _: outcome, post)
                        kernel = _Exact(lambda _: outcome, post)
                        try:
                            kernel.ask(t, stage)
                        except OracleInconsistent:
                            with pytest.raises(OracleInconsistent):
                                scan.ask(t, stage, in_s)
                            continue
                        scan.ask(t, stage, in_s)
                        assert scan.post.q.tobytes() == kernel.post.q.tobytes()
                        assert scan.removed == kernel.removed
                    outcome = bool(t & graph.edge_masks[target])
                    post = condition_on_test(post, t, outcome)
                    if not (found or outcome):
                        break
                    active = node_marginals(post) > 0.0
        assert kinds == {SPLIT, RESIDUAL}


class TestRunBase:
    def test_fig1_expected_tests_exactly_1_5(self, fig1):
        graph, dist = fig1
        cfg = AdaptiveConfig(c=0.1)
        expected = sum(p * tr.total for _, p, tr in enumerate_targets(graph, dist, cfg))
        assert expected == 1.5
        for i, _, tr in enumerate_targets(graph, dist, cfg):
            assert tr.result_edge == i

    def test_fig1_walkthrough_order(self, fig1):
        graph, dist = fig1
        tr = run_adaptive(graph, dist, oracle_for(graph, 0), AdaptiveConfig(c=0.1))
        assert [r.query for r in tr.records] == [(0,), (1,)]
        assert [r.outcome for r in tr.records] == [True, True]

    @pytest.mark.parametrize("n", [8, 16])
    def test_cosize_takes_exactly_n_tests(self, n):
        g, d = build_cosize(n)
        for i, _, tr in enumerate_targets(g, d, AdaptiveConfig(c=0.2)):
            assert tr.total == n
            assert tr.stage1 == 0 and tr.stage2 == n
            assert tr.result_edge == i

    def test_partial_regular_takes_d_plus_2_tests(self):
        g, d = build_partial_regular(10, 4)
        for i, _, tr in enumerate_targets(g, d, AdaptiveConfig(c=0.2)):
            assert tr.total == 6
            assert tr.stage1 == 1 and tr.stage2 == 5
            assert tr.result_edge == i

    def test_counters_add_up(self, fig1):
        graph, dist = fig1
        for _, _, tr in enumerate_targets(graph, dist, AdaptiveConfig(c=0.1)):
            assert tr.stage1 + tr.stage2 == tr.total == len(tr.records)
            assert tr.informative <= tr.stage1

    def test_sparse_model_never_builds_the_dense_matrix(self):
        """On regular130 (3 of 130 nodes per edge) the node marginals come
        from the CSR incidence: no allocation during a run is as large as
        the (|E|, n) float matrix."""
        g, d = build_random_regular(130, 3, count=400, seed=2)
        tracemalloc.start()
        try:
            for i in range(0, len(g), 40):
                assert run_adaptive(g, d, oracle_for(g, i)).result_edge == i
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(g) * g.n * 8
        assert isinstance(g._kernel, tuple)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.45))
    def test_noiseless_exactness_on_random_models(self, seed, c):
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        target = int(rng.choice(len(dist.probs), p=dist.probs))
        tr = run_adaptive(graph, dist, oracle_for(graph, target), AdaptiveConfig(c=c))
        assert tr.returned_mask() == graph.edge_masks[target]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_no_determined_node_is_retested(self, seed):
        """Replaying the transcript: no query ever contains a certain-positive
        node; a node a test showed negative never reappears (nodes with zero
        prior mass may sit in the very first group test, before any update
        has banked them); stage-2 queries use the uncertainty snapshot taken
        at stage-2 entry."""
        rng = np.random.default_rng(seed)
        graph, dist = random_model(rng)
        target = int(rng.choice(len(dist.probs), p=dist.probs))
        tr = run_adaptive(graph, dist, oracle_for(graph, target), AdaptiveConfig(c=0.3))
        prefix = []
        stage2_marg = None
        member = reference_membership(graph)
        prior_marg = member.T @ dist.probs
        for k, rec in enumerate(tr.records):
            post = direct_posterior(graph, dist, prefix)
            marg = member.T @ post.q
            if rec.stage == "individual":
                if stage2_marg is None:
                    stage2_marg = marg
                for v in rec.query:
                    assert 0.0 < stage2_marg[v] < 1.0
            else:
                for v in rec.query:
                    assert marg[v] < 1.0
                    if marg[v] == 0.0:
                        assert k == 0 and prior_marg[v] == 0.0
            prefix.append((mask_of(rec.query), rec.outcome))

    def test_budget_bounds_hold_statistically(self):
        from hypergt.builders import build_islands

        g, d = build_islands(5, 2, 0.4)
        c = 0.3
        rng = np.random.default_rng(7)
        l1, l2, mu2 = [], [], []
        for _ in range(400):
            target = int(rng.choice(len(d.probs), p=d.probs))
            tr = run_adaptive(g, d, oracle_for(g, target), AdaptiveConfig(c=c))
            l1.append(tr.stage1)
            l2.append(tr.stage2)
            mu2.append(tr.mu_stage2 if tr.mu_stage2 is not None else 0.0)
        h = edge_entropy(d)
        stderr = lambda xs: np.std(xs, ddof=1) / math.sqrt(len(xs))
        assert np.mean(l1) <= h / math.log2(1 / (1 - c)) + 1 + 3 * stderr(l1)
        assert np.mean(l2) <= np.mean(mu2) / (1 - 2 * c) + 3 * stderr(l2)

    def test_informative_tests_remove_c_mass(self, fig1):
        graph, dist = fig1
        for _, _, tr in enumerate_targets(graph, dist, AdaptiveConfig(c=0.1)):
            for rec in tr.records:
                if rec.stage == "split" or (rec.stage == "residual" and rec.outcome):
                    assert rec.mass_removed >= 0.1 - 1e-9


class TestRunTruncated:
    def test_matches_base_when_cut_never_binds(self, fig1):
        graph, dist = fig1
        for seed in range(10):
            for i in range(3):
                base = run_adaptive(graph, dist, oracle_for(graph, i), AdaptiveConfig(c=0.1))
                cfg = AdaptiveConfig(c=0.1, variant="truncated", f2=3)
                trunc = run_adaptive(graph, dist, oracle_for(graph, i), cfg,
                                     rng=np.random.default_rng(seed))
                assert trunc.returned_mask() == base.returned_mask()

    def test_controlled_failure_when_target_exceeds_cut(self):
        """With the cutoff below the target size, a run that reaches the
        cutoff returns the few confirmed positives instead of the target."""
        g, d = build_cosize(8)
        saw_failure = False
        for seed in range(30):
            cfg = AdaptiveConfig(c=0.3, variant="truncated", f2=2)
            tr = run_adaptive(g, d, oracle_for(g, 0), cfg, rng=np.random.default_rng(seed))
            if tr.returned_mask() != g.edge_masks[0]:
                saw_failure = True
                assert tr.pn == 2
                assert len(tr.result_nodes) == 2
        assert saw_failure

    def test_wrong_only_when_target_large(self):
        for builder, n in ((build_cosize, 8), (build_nested, 8)):
            g, d = builder(n)
            f2 = 2
            for seed in range(8):
                for i in range(len(g)):
                    cfg = AdaptiveConfig(c=0.3, variant="truncated", f2=f2)
                    tr = run_adaptive(g, d, oracle_for(g, i), cfg, rng=np.random.default_rng(seed))
                    if tr.returned_mask() != g.edge_masks[i]:
                        assert int(g.edge_sizes[i]) > f2

    def test_pn_counts_stage2_positives(self):
        g, d = build_cosize(6)
        cfg = AdaptiveConfig(c=0.3, variant="truncated", f2=3)
        tr = run_adaptive(g, d, oracle_for(g, 0), cfg, rng=np.random.default_rng(1))
        positives = sum(1 for r in tr.records if r.stage == "individual" and r.outcome)
        assert tr.pn == min(positives, tr.pn) <= 3


def sunflower_with_core():
    """Five size-5 edges sharing one core node, plus an isolated node; at
    c=0.3 the first round has no weight window, so stage 2 sees 5 surviving
    edges inside a 6-node residual set."""
    special = [({0, 1, 2, 3, 4} - {v}) | {5} for v in range(5)]
    g = Hypergraph(7, [sorted(e) for e in special])
    return g, EdgeDistribution(np.full(5, 0.2))


class TestRunRegular:
    def test_complement_branch_runs_few_tests(self):
        g, d = sunflower_with_core()
        for i in range(5):
            tr = run_adaptive(g, d, oracle_for(g, i), AdaptiveConfig(c=0.3, variant="regular"))
            assert tr.result_edge == i
            comp = [r for r in tr.records if r.stage == "complement"]
            assert 1 <= len(comp) <= 5
            assert tr.stage2 == len(comp)

    def test_single_survivor_single_complement_test(self):
        g = Hypergraph(4, [[0, 1], [2, 3], [0, 2]])
        d = EdgeDistribution([1 / 3, 1 / 3, 1 / 3])
        # c=0.45: no window, node 1 leaves at the high-weight step, the
        # residual test {1} is negative for target e2, leaving two survivors.
        tr = run_adaptive(g, d, oracle_for(g, 1), AdaptiveConfig(c=0.45, variant="regular"))
        assert tr.result_edge == 1
        comp = [r for r in tr.records if r.stage == "complement"]
        assert len(comp) == 1
        assert comp[0].outcome is False

    def test_dense_fallback_matches_base(self):
        g, d = build_partial_regular(10, 4)
        for i in range(5):
            base = run_adaptive(g, d, oracle_for(g, i), AdaptiveConfig(c=0.2))
            reg = run_adaptive(g, d, oracle_for(g, i), AdaptiveConfig(c=0.2, variant="regular"))
            assert [(r.query, r.outcome) for r in reg.records] == \
                   [(r.query, r.outcome) for r in base.records]
            assert reg.result_edge == base.result_edge

    def test_not_regular_raises(self):
        g = Hypergraph(2, [[0, 1], [0]])
        d = EdgeDistribution([0.7, 0.3])
        with pytest.raises(NotRegular):
            run_adaptive(g, d, oracle_for(g, 0), AdaptiveConfig(c=0.35, variant="regular"))


class TestVariantGuards:
    def test_lying_oracle_raises_oracle_inconsistent(self):
        from hypergt.errors import OracleInconsistent

        # all-negative answers contradict themselves on the second
        # individual test of the co-size family
        g, d = build_cosize(6)
        with pytest.raises(OracleInconsistent):
            run_adaptive(g, d, lambda t: False, AdaptiveConfig(c=0.2))


# Stubs conditioning, on a test mask and on a scan's kept masses alike, with
# a step that removes nothing, then runs fig1 at c=0.1, whose first test is a
# weight-window split.
NO_OP_CONDITIONING_PROBE = """
import hypergt.adaptive as adaptive
from hypergt.model import EdgeDistribution, GroundTruth, Hypergraph, noiseless_oracle

adaptive.condition_on_test = lambda post, t, outcome: post
adaptive._conditioned = lambda post, q, t, outcome: post
graph = Hypergraph(5, [[0, 1, 2], [0, 4], [3, 4]])
dist = EdgeDistribution([0.3, 0.2, 0.5])
truth = GroundTruth(0, graph.edge_masks[0])
try:
    adaptive.run_adaptive(graph, dist, noiseless_oracle(truth), adaptive.AdaptiveConfig(c=0.1))
except Exception as exc:
    print(type(exc).__name__)
"""


class TestInvariants:
    def test_checked_under_python_O(self):
        """A split that removes no mass is caught even when asserts are
        stripped, instead of the loop asking the same split forever."""
        src = str(Path(hypergt.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-O", "-c", NO_OP_CONDITIONING_PROBE],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() == "InvariantViolation", done.stderr


class TestTranscriptRecord:
    def test_json_shape_with_stage_tags(self, fig1):
        graph, dist = fig1
        tr = run_adaptive(graph, dist, oracle_for(graph, 0), AdaptiveConfig(c=0.1))
        doc = tr.to_json()
        assert doc["result_edge"] == 0
        assert doc["result_nodes"] == [0, 1, 2]
        assert doc["stage1"] + doc["stage2"] == len(doc["records"])
        for rec in doc["records"]:
            assert set(rec) >= {"query", "outcome", "stage"}
            assert rec["stage"] in ("split", "residual", "individual", "complement")
        import json

        json.dumps(doc)  # round-trippable

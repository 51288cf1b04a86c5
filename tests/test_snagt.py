import math

import numpy as np
import pytest

from conftest import oracle_for, truth_for
from hypergt.builders import build_nested, build_random_regular
from hypergt.errors import EmptySupport
from hypergt.model import EdgeDistribution, Hypergraph, noiseless_oracle, sample_truth
from hypergt.sets import bit_count, mask_of
from hypergt.snagt import (
    CandidateTracker,
    SnagtConfig,
    dyadic_bucket,
    partition_dyadic,
    preprocess_truncate,
    random_test_set,
    run_snagt,
)


class TestPreprocess:
    def test_nested_truncation(self):
        g, d = build_nested(8)
        g2, d2, kept = preprocess_truncate(g, d, 3)
        assert kept == [0, 1]
        assert np.allclose(d2.probs, [0.5, 0.5])
        assert g2.n == 8  # nodes stay

    def test_identity_when_u_exceeds_sizes(self):
        g, d = build_nested(4)
        g2, d2, kept = preprocess_truncate(g, d, 5)
        assert kept == [0, 1, 2, 3]
        assert np.array_equal(d2.probs, d.probs)

    def test_empty_support(self):
        g = Hypergraph(3, [[0, 1, 2]])
        with pytest.raises(EmptySupport):
            preprocess_truncate(g, EdgeDistribution([1.0]), 3)


class TestDyadicPartition:
    @pytest.mark.parametrize("p,bucket", [
        (0.5, 1), (0.3, 2), (1.0, 1), (0.25, 2), (0.125, 3), (0.7, 1), (0.2, 3),
    ])
    def test_bucket_assignment(self, p, bucket):
        assert dyadic_bucket(p) == bucket

    def test_every_positive_edge_in_one_bucket(self):
        d = EdgeDistribution([0.5, 0.25, 0.125, 0.125, 0.0])
        part = partition_dyadic(d)
        placed = sorted(e for edges in part.buckets.values() for e in edges)
        assert placed == [0, 1, 2, 3]  # zero-mass edge 4 is never the target
        counts = part.bucket_counts()
        assert sum(counts.values()) == 4


class TestRandomTestSet:
    def test_deterministic_under_seed(self):
        a = random_test_set(50, 4, np.random.default_rng(3))
        b = random_test_set(50, 4, np.random.default_rng(3))
        assert a == b

    def test_inclusion_frequency(self):
        n, u, draws = 100, 5, 20_000
        rng = np.random.default_rng(0)
        hits = np.zeros(n)
        for _ in range(draws):
            m = random_test_set(n, u, rng)
            for v in range(n):
                hits[v] += m >> v & 1
        freq = hits / draws
        assert abs(freq.mean() - 0.2) < 0.01
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_mean_size_at_u_equals_n(self):
        n = 40
        rng = np.random.default_rng(1)
        sizes = [bit_count(random_test_set(n, n, rng)) for _ in range(4000)]
        assert abs(np.mean(sizes) - 1.0) < 3 * np.std(sizes, ddof=1) / math.sqrt(len(sizes))


def three_regular(n=60, count=30, seed=7):
    return build_random_regular(n, 3, count=count, seed=seed)


class TestRunSnagt:
    def test_single_edge_support(self):
        g = Hypergraph(30, [[2, 5]])
        d = EdgeDistribution([1.0])
        tr = run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, seed=0))
        assert tr.result_edge == 0
        assert not tr.halted
        # the lone band waits out the full survival threshold
        threshold = math.ceil(10 * 3 * math.log2(30))
        assert threshold <= tr.total <= threshold + 2

    def test_schedule_is_target_independent(self):
        g, d = three_regular()
        runs = []
        for target in (0, 7, 19):
            tr = run_snagt(g, d, oracle_for(g, target), SnagtConfig(u=3, seed=12))
            runs.append([r.query for r in tr.records])
        k = min(len(q) for q in runs)
        assert runs[0][:k] == runs[1][:k] == runs[2][:k]

    def test_target_survives_every_elimination(self):
        g, d = three_regular(n=30, count=12, seed=2)
        target = 4
        tr = run_snagt(g, d, oracle_for(g, target), SnagtConfig(u=3, seed=9))
        assert tr.result_edge == target
        # replay: the target is consistent with every recorded outcome
        for rec in tr.records:
            hit = bool(mask_of(rec.query) & g.edge_masks[target])
            assert hit == rec.outcome

    def test_elimination_soundness_by_replay(self):
        g, d = three_regular(n=30, count=12, seed=2)
        tr = run_snagt(g, d, oracle_for(g, 3), SnagtConfig(u=3, seed=4))
        transcript = [(mask_of(r.query), r.outcome) for r in tr.records]
        # an edge is inconsistent iff some recorded pair disagrees with it
        consistent = [
            all(bool(m & t) == r for t, r in transcript) for m in g.edge_masks
        ]
        assert consistent[3]
        assert tr.result_edge == 3

    def test_recovery_rate_on_three_regular(self):
        g, d = three_regular()
        ok = 0
        trials = 60
        for trial in range(trials):
            rng = np.random.default_rng(500 + trial)
            truth = sample_truth(g, d, rng)
            tr = run_snagt(g, d, noiseless_oracle(truth), SnagtConfig(u=3, seed=trial))
            ok += (not tr.halted) and tr.returned_mask() == truth.mask
        assert ok / trials >= 0.95

    def test_halts_at_the_cap(self):
        g, d = three_regular(n=20, count=8, seed=5)
        cfg = SnagtConfig(u=3, stop_coeff=10.0, cap_coeff=0.2, seed=0)
        tr = run_snagt(g, d, oracle_for(g, 0), cfg)
        assert tr.halted
        assert tr.total == 12  # floor(0.2 * 3 * 20)
        assert tr.result_edge is None

    def test_counter_snapshots_recorded(self):
        g, d = three_regular(n=30, count=12, seed=5)
        tr = run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, seed=0))
        assert not tr.halted
        assert all(r.sg_size is not None and r.sg_max_time is not None for r in tr.records)
        assert tr.records[-1].sg_max_time >= math.ceil(10 * 3 * math.log2(30)) - 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SnagtConfig(u=1).validate()
        with pytest.raises(ValueError):
            SnagtConfig(u=3, stop_coeff=0).validate()


class TestCandidateTracker:
    def test_candidacy_tracks_single_survivor_counts(self):
        tracker = CandidateTracker.fresh([1, 2, 3])
        tracker.refresh({1: 3, 2: 1, 3: 0})
        assert tracker.sg == {2}
        tracker.tick()
        tracker.refresh({1: 1, 2: 1, 3: 0})
        assert tracker.sg == {1, 2}
        tracker.tick()
        assert tracker.time == {1: 1, 2: 2, 3: 0}

    def test_counter_law(self):
        """time(G_j) equals the number of tests run while G_j was a candidate,
        computed independently from the raw count history."""
        rng = np.random.default_rng(0)
        counts = {j: int(c) for j, c in enumerate(rng.integers(1, 5, size=6))}
        tracker = CandidateTracker.fresh(counts)
        tracker.refresh(counts)
        expected = {j: 0 for j in counts}
        for _ in range(40):
            # a band is a candidate during this test iff it stood at exactly
            # one survivor when the test was issued
            for j, c in counts.items():
                if c == 1:
                    expected[j] += 1
            tracker.tick()
            j = int(rng.integers(6))
            counts[j] = max(0, counts[j] - int(rng.integers(2)))
            tracker.refresh(counts)
        assert tracker.time == expected

    def test_dead_band_is_never_ripe(self):
        tracker = CandidateTracker.fresh([1])
        tracker.refresh({1: 1})
        for _ in range(5):
            tracker.tick()
        tracker.refresh({1: 0})
        assert tracker.ripe(3) == []

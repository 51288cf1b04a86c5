import itertools
import math
import warnings

import numpy as np
import pytest

import hypergt.snagt
from conftest import oracle_for, random_test_set as reference_test_set, reference_snagt, truth_for
from hypergt.builders import build_cosize, build_nested, build_random_regular
from hypergt.errors import EmptySupport, SchemaError
from hypergt.model import NODE_CAP, EdgeDistribution, Hypergraph, noiseless_oracle, sample_truth
from hypergt.noisy import NoiseChannel, noisy_oracle, repetitions, run_noisy_snagt
from hypergt.sets import mask_of, meets
from hypergt.snagt import SnagtConfig, band_plan, dyadic_bucket, random_test_set, run_snagt
from hypergt.transcript import COMPLEMENT, INDIVIDUAL, RANDOM, RESIDUAL, SPLIT, Transcript


class TestDyadicPartition:
    @pytest.mark.parametrize("p,bucket", [
        (0.5, 1), (0.3, 2), (1.0, 1), (0.25, 2), (0.125, 3), (0.7, 1), (0.2, 3),
    ])
    def test_bucket_assignment(self, p, bucket):
        assert dyadic_bucket(p) == bucket

    def test_zero_has_no_band(self):
        with pytest.raises(ValueError, match="bands are defined for positive probabilities only"):
            dyadic_bucket(0.0)


def row_flags(block, n):
    """(k, n) bool view of a (k, words) query block."""
    return np.unpackbits(block.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


class TestRandomTestSet:
    def test_deterministic_under_seed(self):
        a = random_test_set(50, 4, np.random.default_rng(3), 1)
        b = random_test_set(50, 4, np.random.default_rng(3), 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 500])
    def test_a_block_is_its_rows_drawn_one_at_a_time(self, n):
        """k rows of one draw are the k single-row draws of the same seed, and
        each row holds the mask the one-test draw gives."""
        k, u = 37, 3
        block = random_test_set(n, u, np.random.default_rng(n), k)
        assert block.shape == (k, (n + 63) // 64) and block.dtype == np.dtype("<u8")
        one_at_a_time = np.random.default_rng(n)
        rows = np.vstack([random_test_set(n, u, one_at_a_time, 1) for _ in range(k)])
        assert np.array_equal(block, rows)
        one_test = np.random.default_rng(n)
        assert [int.from_bytes(row.tobytes(), "little") for row in block] == \
               [reference_test_set(n, u, one_test) for _ in range(k)]

    def test_inclusion_frequency(self):
        n, u, draws = 100, 5, 20_000
        rng = np.random.default_rng(0)
        hits = sum(row_flags(random_test_set(n, u, rng, 1000), n).sum(axis=0)
                   for _ in range(draws // 1000))
        freq = hits / draws
        assert abs(freq.mean() - 0.2) < 0.01
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_mean_size_at_u_equals_n(self):
        n = 40
        rng = np.random.default_rng(1)
        sizes = row_flags(random_test_set(n, n, rng, 4000), n).sum(axis=1)
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
            runs.append([r["query"] for r in tr.records])
        k = min(len(q) for q in runs)
        assert runs[0][:k] == runs[1][:k] == runs[2][:k]

    def test_target_survives_every_elimination(self):
        g, d = three_regular(n=30, count=12, seed=2)
        target = 4
        tr = run_snagt(g, d, oracle_for(g, target), SnagtConfig(u=3, seed=9))
        assert tr.result_edge == target
        # replay: the target is consistent with every recorded outcome
        for rec in tr.records:
            hit = bool(mask_of(rec["query"]) & g.edge_masks[target])
            assert hit == rec["outcome"]

    def test_elimination_soundness_by_replay(self):
        g, d = three_regular(n=30, count=12, seed=2)
        tr = run_snagt(g, d, oracle_for(g, 3), SnagtConfig(u=3, seed=4))
        transcript = [(mask_of(r["query"]), r["outcome"]) for r in tr.records]
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
            ok += (not tr.halted) and tr.result_mask == truth.mask
        assert ok / trials >= 0.95

    def test_halts_at_the_cap(self):
        g, d = three_regular(n=20, count=8, seed=5)
        cfg = SnagtConfig(u=3, stop_coeff=10.0, cap_coeff=0.2, seed=0)
        with pytest.warns(UserWarning, match="threshold 130 >= test cap 12"):
            tr = run_snagt(g, d, oracle_for(g, 0), cfg)
        assert tr.halted
        assert tr.total == 12  # floor(0.2 * 3 * 20)
        assert tr.result_edge is None

    def test_warns_when_no_run_can_return(self):
        g, d = three_regular(n=20, count=8, seed=5)
        # threshold ceil(10 * 3 * log2 20) = 130 >= cap floor(2 * 3 * 20) = 120
        with pytest.warns(UserWarning, match="threshold 130 >= test cap 120"):
            tr = run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, seed=0))
        assert tr.halted
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # threshold 13 < cap 120: no warning
            run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, stop_coeff=1.0, seed=0))

    def test_counter_snapshots_recorded(self):
        g, d = three_regular(n=30, count=12, seed=5)
        tr = run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, seed=0))
        assert not tr.halted
        assert all("sg_size" in r and "sg_max_time" in r for r in tr.records)
        assert tr.records[-1]["sg_max_time"] >= math.ceil(10 * 3 * math.log2(30)) - 1

    def test_empty_support(self):
        g = Hypergraph(3, [[0, 1, 2]])
        with pytest.raises(EmptySupport):  # every edge is larger than u
            run_snagt(g, EdgeDistribution([1.0]), oracle_for(g, 0), SnagtConfig(u=2, seed=0))
        g = Hypergraph(4, [[0], [0, 1, 2]])
        with pytest.raises(EmptySupport):  # the edges within u carry no mass
            run_snagt(g, EdgeDistribution([0.0, 1.0]), oracle_for(g, 1),
                      SnagtConfig(u=2, seed=0))

    def test_truncation_keeps_size_u_edges(self):
        g, d = build_nested(8)  # prefixes of sizes 1..8, each of mass 1/8
        for seed in range(5):
            tr = run_snagt(g, d, oracle_for(g, 1), SnagtConfig(u=2, stop_coeff=1.0, seed=seed))
            assert not tr.halted and tr.result_edge == 1

    def test_oversized_or_massless_target_is_never_returned(self):
        g = Hypergraph(6, [[0], [1], [2, 3], [4], [5], [0, 1, 2, 3]])
        d = EdgeDistribution([0.4, 0.3, 0.2, 0.0, 0.0, 0.1])
        for target in (3, 4, 5):  # zero mass, zero mass, larger than u
            for seed in range(10):
                tr = run_snagt(g, d, oracle_for(g, target),
                               SnagtConfig(u=2, stop_coeff=1.0, seed=seed))
                assert tr.result_edge != target

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SnagtConfig(u=1)
        with pytest.raises(ValueError):
            SnagtConfig(u=3, stop_coeff=0)

    @pytest.mark.parametrize("coeffs", [
        {"stop_coeff": math.nan}, {"cap_coeff": math.nan},
        {"stop_coeff": math.inf}, {"cap_coeff": math.inf},
    ], ids=["nan-stop", "nan-cap", "infinite-stop", "infinite-cap"])
    def test_coefficients_must_be_finite(self, coeffs):
        with pytest.raises(ValueError, match="must be positive and finite"):
            SnagtConfig(u=3, **coeffs)

    @pytest.mark.parametrize("u", [NODE_CAP + 1, 2 ** 70, 10 ** 400],
                             ids=["cap-plus-one", "two-to-the-70", "ten-to-the-400"])
    def test_u_above_the_node_cap_is_refused_when_built(self, u):
        # No edge has more than NODE_CAP nodes; at 2^70 the test cap would be ~9e21 tests.
        with pytest.raises(SchemaError, match=f"u exceeds NODE_CAP={NODE_CAP}"):
            SnagtConfig(u=u)
        assert SnagtConfig(u=NODE_CAP).u == NODE_CAP

    @pytest.mark.parametrize("coeffs", [{"stop_coeff": 1e308}, {"cap_coeff": 1e308}],
                             ids=["stop", "cap"])
    def test_a_test_budget_that_overflows_at_n_is_refused(self, coeffs):
        g, d = build_nested(4)
        with pytest.raises(SchemaError, match="overflow the test budget at n=4"):
            run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=3, **coeffs))

    def test_a_model_of_zero_nodes_is_refused(self):
        """log2 n has no value at n = 0, so neither has the survival threshold."""
        g, d = Hypergraph(0, [[]]), EdgeDistribution([1.0])
        with pytest.raises(SchemaError, match=r"survival threshold .* is undefined at n=0"):
            run_snagt(g, d, oracle_for(g, 0), SnagtConfig(u=2))


def replay_stopping_rule(graph, dist, config, tr):
    """Recompute every record's candidate snapshot and the stopping point of
    a noiseless run from its transcript alone.

    A_j is the set of kept live edges consistent with the first j outcomes.
    Before test k, band b is a candidate iff k >= 1 and b has one edge in
    A_k, and its time is the number of j in 1..k-1 at which it had one edge
    in A_j. The run stops before the first test at which some candidate's
    time reaches the threshold.
    """
    n, u = graph.n, config.u
    kept = [e for e, m in enumerate(graph.edge_masks) if m.bit_count() <= u]
    mass = float(dist.probs[kept].sum())
    tail = math.ceil(n * math.log2(n))
    band = {e: min(dyadic_bucket(float(dist.probs[e] / mass)), tail)
            for e in kept if dist.probs[e] > 0}
    bands = set(band.values())
    threshold = math.ceil(config.stop_coeff * u * math.log2(n))

    def single(alive):
        hits = [band[e] for e in alive]
        return {b for b in bands if hits.count(b) == 1}

    alive = set(band)
    history = [single(alive)]  # history[j]: bands with one edge in A_j
    for rec in tr.records:
        q = mask_of(rec["query"])
        alive = {e for e in alive if bool(graph.edge_masks[e] & q) == rec["outcome"]}
        history.append(single(alive))

    def state(k):
        candidates = history[k] if k >= 1 else set()
        time = {b: sum(b in history[j] for j in range(1, k)) for b in bands}
        return candidates, time

    for k, rec in enumerate(tr.records):
        candidates, time = state(k)
        assert rec["sg_size"] == len(candidates)
        assert rec["sg_max_time"] == max(time.values())
        assert not any(time[b] >= threshold for b in candidates)
    candidates, time = state(len(tr.records))
    ripe = {b for b in candidates if time[b] >= threshold}
    if tr.halted:
        assert not ripe
        assert tr.total == math.floor(config.cap_coeff * u * n + 1e-9)
    else:
        assert ripe
        assert tr.result_edge in alive and band[tr.result_edge] in ripe
    return history[0]


def community12():
    from hypergt.builders import ModelSpec, build_model

    return build_model(ModelSpec("community", {"sizes": [3, 3, 3, 3], "q": 0.3, "p": [0.5] * 4}))


def with_zero_mass():
    return (Hypergraph(6, [[0], [1], [2, 3], [4], [5, 0], [1, 2]]),
            EdgeDistribution([0.4, 0.3, 0.2, 0.0, 0.05, 0.05]))


def tail_band_only():
    # n = 4 merges bands past ceil(4 log2 4) = 8: 0.003 and 0.002 reach band
    # 8 only through that clamp, 0.005 lies in band 8 itself.
    return (Hypergraph(4, [[0], [1], [2], [3], [0, 1]]),
            EdgeDistribution([0.5, 0.49, 0.003, 0.002, 0.005]))


class TestStoppingRule:
    @pytest.mark.parametrize("model,u", [(community12, 4), (with_zero_mass, 2),
                                         (tail_band_only, 2)])
    def test_replay_matches_transcript(self, model, u):
        g, d = model()
        returned = 0
        for seed in range(3):
            for target in np.flatnonzero(d.probs > 0)[:6].tolist():
                cfg = SnagtConfig(u=u, stop_coeff=1.0, seed=seed)
                tr = run_snagt(g, d, oracle_for(g, target), cfg)
                singles = replay_stopping_rule(g, d, cfg, tr)
                returned += not tr.halted
        assert returned > 0
        if model is community12:
            assert singles  # a band holds a single edge from the start


class Counted:
    """An oracle that logs every query it answers."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.queries = []

    def __call__(self, t_mask):
        self.queries.append(t_mask)
        return self.oracle(t_mask)


def nested16():
    return build_nested(16)


class TestBlockEngine:
    """The block engine against `reference_snagt`, the per-test loop it
    replaced: equal transcripts record for record, and the same oracle calls
    in the same order."""

    @staticmethod
    def same_run(graph, dist, make_oracle, config, channel=None):
        block, single = Counted(make_oracle()), Counted(make_oracle())
        if channel is None:
            got = run_snagt(graph, dist, block, config)
            reps = 1
        else:
            got = run_noisy_snagt(graph, dist, block, config, channel)
            reps = repetitions(2.0, config.u * graph.n, channel.delta)
        want = reference_snagt(graph, dist, single, config, reps)
        assert got.to_json() == want.to_json()
        assert len(block.queries) == len(single.queries) == got.total
        assert block.queries == single.queries
        return got

    @pytest.mark.parametrize("model,u,coeffs", [
        (three_regular, 3, {}),
        (community12, 4, {"stop_coeff": 1.0}),  # many bands of unequal mass
        (community12, 2, {"stop_coeff": 1.0}),  # u drops the edges of 3 or more nodes
        (nested16, 3, {"stop_coeff": 1.0, "cap_coeff": 0.5}),  # drops edges; the cap ends runs
        (community12, 4, {"stop_coeff": 1.0, "cap_coeff": 0.5}),  # the cap, 24, cuts the second block
        (with_zero_mass, 2, {"stop_coeff": 1.0}),
        (tail_band_only, 2, {"stop_coeff": 1.0}),
    ], ids=["regular60", "community12", "community12-u2", "nested16-capped",
            "community12-capped", "zero-mass", "tail-band"])
    def test_noiseless_runs_match_the_per_test_loop(self, model, u, coeffs):
        g, d = model()
        outcomes = set()
        for seed in range(4):
            for target in np.flatnonzero(d.probs > 0)[:6].tolist():
                tr = self.same_run(g, d, lambda: oracle_for(g, target),
                                   SnagtConfig(u=u, seed=seed, **coeffs))
                outcomes.add(tr.halted)
        assert outcomes == ({False, True} if "cap_coeff" in coeffs else {False})

    def test_runs_that_cannot_return_match(self):
        g, d = three_regular(n=20, count=8, seed=5)
        for seed in range(3):
            with pytest.warns(UserWarning, match="threshold 130 >= test cap 12"):
                tr = self.same_run(g, d, lambda: oracle_for(g, 0),
                                   SnagtConfig(u=3, cap_coeff=0.2, seed=seed))
            assert tr.halted and tr.total == 12

    @pytest.mark.parametrize("model,u", [(three_regular, 3), (community12, 4)],
                             ids=["regular60", "community12"])
    def test_noisy_runs_match_the_per_test_loop(self, model, u):
        g, d = model()
        channel = NoiseChannel(0.1)
        assert repetitions(2.0, u * g.n, channel.delta) > 1
        for seed in range(3):
            truth = truth_for(g, 2 * seed + 1)
            tr = self.same_run(g, d,
                               lambda: noisy_oracle(truth, channel, np.random.default_rng(seed)),
                               SnagtConfig(u=u, stop_coeff=1.0, seed=seed), channel)
            assert all("rep_group" in r for r in tr.records)


class TestStoreLayout:
    """`meets` reads each word row of the live store whole, so the store the
    engine hands it must be C-contiguous. Both models span more than one word
    row: with one row an array is C- and F-contiguous at once, and no layout
    shows."""

    @pytest.mark.parametrize("model", [
        lambda: build_nested(100),  # edges above u are dropped: the live columns are gathered
        lambda: build_random_regular(130, 3, count=400, seed=1),  # every edge is live
    ], ids=["nested100", "regular130"])
    def test_every_store_meets_reads_is_row_major(self, model, monkeypatch):
        g, d = model()
        assert g.words.shape[0] > 1
        stores = []

        def checked_meets(words, queries):
            stores.append(words.flags["C_CONTIGUOUS"])
            return meets(words, queries)

        monkeypatch.setattr(hypergt.snagt, "meets", checked_meets)
        config = SnagtConfig(u=4, stop_coeff=1.0, seed=0)
        target = int(np.flatnonzero(g.edge_sizes <= 4)[-1])
        run_snagt(g, d, oracle_for(g, target), config)
        channel = NoiseChannel(0.05)
        run_noisy_snagt(g, d, noisy_oracle(truth_for(g, target), channel,
                                           np.random.default_rng(0)), config, channel)
        assert len(stores) > 2 and all(stores)


class TestBandPlan:
    """One plan serves every run on its (graph, dist, u): runs that share a
    memo equal runs that build their own plan, and leave the plan as it was."""

    def test_runs_that_share_a_plan_match_runs_that_build_one(self):
        g, d = community12()
        memo = {}
        channel = NoiseChannel(0.1)
        for seed in range(3):
            config = SnagtConfig(u=4, stop_coeff=1.0, seed=seed)
            shared = run_snagt(g, d, oracle_for(g, seed), config, memo=memo)
            assert shared.to_json() == run_snagt(g, d, oracle_for(g, seed), config).to_json()
            if seed == 0:
                plan = memo[("band plan", g, d, 4)]
                before = [a.copy() for a in (plan.live, plan.band, plan.count)]
            noisy = [run_noisy_snagt(g, d, noisy_oracle(truth_for(g, seed), channel,
                                                        np.random.default_rng(seed)),
                                     config, channel, **kw).to_json() for kw in ({"memo": memo}, {})]
            assert noisy[0] == noisy[1]
        assert list(memo) == [("band plan", g, d, 4)]
        after = (plan.live, plan.band, plan.count)
        assert all(np.array_equal(a, b) and not b.flags.writeable for a, b in zip(before, after))

    def test_runs_on_other_models_or_u_keep_apart_on_one_memo(self):
        """nested(8) and cosize(8) at u = 4 and u = 8 share one memo; each run
        reads only its own model's plan, so it equals a fresh run. cosize(8)
        has no edge of size <= 4, so at u = 4 every run raises EmptySupport."""

        def outcome(run):
            try:
                return run().to_json()
            except EmptySupport as exc:
                return repr(exc)

        models = [build_nested(8), build_cosize(8)]
        channel = NoiseChannel(0.05)
        memo = {}
        empty = 0
        for seed in range(5):
            for (g, d), u in itertools.product(models, (8, 4)):
                config = SnagtConfig(u=u, stop_coeff=0.5, cap_coeff=20, seed=seed)
                for target in range(len(d)):
                    runs = [lambda m: run_snagt(g, d, oracle_for(g, target), config, memo=m),
                            lambda m: run_noisy_snagt(g, d, noisy_oracle(
                                truth_for(g, target), channel, np.random.default_rng(seed)),
                                config, channel, memo=m)]
                    for run in runs:
                        shared = outcome(lambda: run(memo))
                        assert shared == outcome(lambda: run(None)), (g.n, u, seed, target)
                        if g is models[1][0] and u == 4:
                            assert shared.startswith("EmptySupport")
                            empty += 1
        assert empty == 5 * 8 * 2
        assert len(memo) == 3  # no plan of cosize(8) at u = 4

    def test_an_empty_support_is_refused_when_planned(self):
        g = Hypergraph(3, [[0, 1, 2]])
        with pytest.raises(EmptySupport):
            band_plan(g, EdgeDistribution([1.0]), 2)


# (query mask, outcome, stage, mass removed) of an adaptive run's records.
MIXED = [(0b011, True, SPLIT, 0.25), (0b100, False, SPLIT, 0.5), (0b001, True, RESIDUAL, None),
         (0b001, True, INDIVIDUAL, None), (0b010, False, INDIVIDUAL, None),
         (0b110, True, COMPLEMENT, None)]


class TestTranscriptBlocks:
    """`Transcript.extend` appends the records `add` would, one at a time."""

    @staticmethod
    def one_at_a_time(records):
        tr = Transcript()
        for r in records:
            tr.add(mask_of(r["query"]), r["outcome"], r["stage"], r.get("mass_removed"),
                   r.get("rep_group"), r.get("sg_size"), r.get("sg_max_time"))
        return tr

    @staticmethod
    def assert_same(a, b):
        assert a.records == b.records
        assert a.to_json()["records"] == b.to_json()["records"]
        assert (a.total, a.stage1, a.stage2) == (b.total, b.stage1, b.stage2)

    def test_blocks_of_a_mixed_stage_transcript(self):
        single = Transcript()
        for mask, outcome, stage, removed in MIXED:
            single.add(mask, outcome, stage, mass_removed=removed)
        blocks = Transcript()
        for start, stop in ((0, 2), (2, 3), (3, 5), (5, 6)):  # one block per run of a stage
            rows = MIXED[start:stop]
            blocks.extend([r[0] for r in rows], [r[1] for r in rows], rows[0][2],
                          mass_removed=[r[3] for r in rows])
        self.assert_same(blocks, single)
        assert (blocks.total, blocks.stage1, blocks.stage2) == (6, 3, 3)

    def test_a_noisy_preplanned_block_with_rep_groups(self):
        g, d = community12()
        channel = NoiseChannel(0.1)
        tr = run_noisy_snagt(g, d, noisy_oracle(truth_for(g, 1), channel, np.random.default_rng(1)),
                             SnagtConfig(u=4, stop_coeff=1.0, seed=1), channel)
        assert len({r["rep_group"] for r in tr.records}) < tr.total  # groups of repeats
        self.assert_same(tr, self.one_at_a_time(tr.records))
        whole = Transcript()
        whole.extend(tr.query_masks, tr.outcomes, RANDOM, rep_group=tr.rep_groups,
                     sg_size=tr.sg_sizes, sg_max_time=tr.sg_max_times)
        self.assert_same(whole, tr)

    def test_outcomes_are_stored_as_booleans(self):
        tr = Transcript()
        tr.extend([1, 2], [np.True_, 0], SPLIT)
        assert [type(o) for o in tr.outcomes] == [bool, bool]
        assert tr.to_json()["records"][1]["outcome"] is False

    def test_a_column_of_another_length_is_refused(self):
        tr = Transcript()
        with pytest.raises(ValueError, match="a block of 2 records needs 2 values"):
            tr.extend([1, 2], [True, False], RANDOM, sg_size=[0])
        assert tr.total == 0

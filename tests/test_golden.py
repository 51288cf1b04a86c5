"""Golden transcripts: every engine, on a fixed grid of models and seeds,
must keep producing byte-identical transcripts.

Each cell hashes `Transcript.to_json()` (keys sorted, floats by repr) for a
few seeded trials. The models cover one 64-bit word (n=12, n=64) and several
words (n=70, n=130), so a change to how node sets are stored or intersected
shows up here as a changed hash. A model's split constant c is chosen so that
its adaptive runs reach stage 2; the truncated variant always runs at c=1/3.
partial10 has five nodes in no edge: it is the one model on which the
noiseless start rule (scan all n nodes) and the noisy one (scan the nodes of
positive prior mass) issue different tests.

Each model cell hashes one builder family's output: n, the edge masks in
order and the bytes of the probabilities, so a builder that reorders its
enumeration or its float products shows up here even where no engine runs.
"""

import contextlib
import hashlib
import json

import numpy as np
import pytest

from hypergt.adaptive import AdaptiveConfig, run_adaptive
from hypergt.builders import BUILDERS, ModelSpec, build_model
from hypergt.model import noiseless_oracle, sample_truth
from hypergt.noisy import (
    NoiseChannel,
    noisy_oracle,
    run_noisy_adaptive,
    run_noisy_snagt,
)
from hypergt.snagt import SnagtConfig, run_snagt

# name: (spec, c)
MODELS = {
    "community12": (ModelSpec("community", {"sizes": [3, 3, 3, 3], "q": 0.3, "p": [0.5] * 4}), 0.45),
    "cosize70": (ModelSpec("cosize", {"n": 70}), 1.0 / 3.0),
    "regular64": (ModelSpec("random_regular", {"n": 64, "d": 3, "count": 300, "seed": 1}), 0.45),
    "regular130": (ModelSpec("random_regular", {"n": 130, "d": 3, "count": 400, "seed": 2}), 0.45),
    "partial10": (ModelSpec("partial_regular", {"n": 10, "d": 4}), 0.2),
}
SEEDS = (0, 1, 2)
DELTA = 0.05


def run_engine(engine, graph, dist, c, seed):
    ss = np.random.SeedSequence(entropy=seed)
    rng_target, rng_engine, rng_noise = (np.random.default_rng(s) for s in ss.spawn(3))
    truth = sample_truth(graph, dist, rng_target)
    clean = noiseless_oracle(truth)
    noisy = noisy_oracle(truth, NoiseChannel(DELTA), rng_noise)
    if engine in ("base", "regular"):
        return run_adaptive(graph, dist, clean, AdaptiveConfig(c=c, variant=engine))
    if engine == "truncated":
        return run_adaptive(graph, dist, clean, AdaptiveConfig(variant="truncated", eps=0.1),
                            rng=rng_engine)
    if engine == "snagt":
        return run_snagt(graph, dist, clean, SnagtConfig(u=4, seed=seed))
    if engine == "noisy_adaptive":
        return run_noisy_adaptive(graph, dist, noisy, AdaptiveConfig(c=c), NoiseChannel(DELTA),
                                  max_physical_tests=2000)
    if engine == "noisy_snagt":
        return run_noisy_snagt(graph, dist, noisy, SnagtConfig(u=4, seed=seed),
                               NoiseChannel(DELTA))
    raise ValueError(engine)


def cell_hash(model, engine):
    spec, c = MODELS[model]
    graph, dist = build_model(spec)
    digest = hashlib.sha256()
    for seed in SEEDS:
        doc = run_engine(engine, graph, dist, c, seed).to_json()
        digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()[:16]


# Recorded on the per-edge bitmask loop that the packed kernel replaced.
GOLDEN = {
    ("community12", "base"): "bb9a23c56d42861e",
    ("community12", "snagt"): "c0f5ef27018432c4",
    ("community12", "noisy_adaptive"): "96664b7f2d0b848d",
    ("community12", "noisy_snagt"): "0d8237e6a70e9de5",
    ("cosize70", "base"): "e728f301dd6159c5",
    ("cosize70", "truncated"): "e4ccca508dfb2e51",
    ("cosize70", "regular"): "e728f301dd6159c5",
    ("cosize70", "noisy_adaptive"): "c2eff85f803639d3",
    ("regular64", "base"): "3af2dd6b240e4b2c",
    ("regular64", "regular"): "d4b856543699f337",
    ("regular64", "snagt"): "c0760ecc2c394a08",
    ("regular64", "noisy_adaptive"): "4dd11e03c984d50d",
    ("regular64", "noisy_snagt"): "d0b6aeba27fc2fbb",
    ("regular130", "base"): "58b2c7ce2c0c94b9",
    # Re-recorded when boundary ties in the split scan became exact: seed 1's
    # third test had w(S minus v) 2.6e-17 above 1-c, which a rounded sum put
    # inside the window.
    ("regular130", "truncated"): "8505443d5e139a8d",
    ("regular130", "regular"): "a139764944321e65",
    ("regular130", "snagt"): "0864092a627b51c2",
    ("regular130", "noisy_adaptive"): "d1041e1e4ac4d8a3",
    ("regular130", "noisy_snagt"): "754b173df2370344",
    # Recorded on the separate noiseless and noisy loops that one loop replaced.
    ("partial10", "base"): "9171fe311177b1f7",
    ("partial10", "regular"): "9171fe311177b1f7",
    ("partial10", "truncated"): "8e0d271e2f9e252e",
    ("partial10", "noisy_adaptive"): "1afe79263a7bddd2",
}


# On community12 (n=12, u=4) the survival threshold 144 exceeds the test cap
# 96, so the preplanned engines warn that no run can return.
NEVER_RETURNS = {("community12", "snagt"), ("community12", "noisy_snagt")}


@pytest.mark.parametrize("model,engine", sorted(GOLDEN))
def test_transcripts_unchanged(model, engine):
    with (pytest.warns(UserWarning, match="threshold 144 >= test cap 96")
          if (model, engine) in NEVER_RETURNS else contextlib.nullcontext()):
        assert cell_hash(model, engine) == GOLDEN[(model, engine)]


# family: params, one model per builder family.
MODEL_SPECS = {
    "independent": {"p": [0.1, 0.25, 0.3, 0.55, 0.7, 0.9, 0.33, 0.61]},
    "islands": {"k": 5, "m": 3, "p": [0.15, 0.4, 0.6, 0.35, 0.8]},
    "nested": {"n": 9},
    "cosize": {"n": 70},
    "partial_regular": {"n": 10, "d": 4},
    "big_graph": {"n": 4},
    "entropy_gap": {"n": 12, "m": 20, "d": 3, "seed": 4},
    "random_regular": {"n": 64, "d": 3, "count": 300, "seed": 1},
    "community": {"sizes": [2, 3, 4, 3], "q": 0.35, "p": [0.3, 0.55, 0.7, 0.45]},
    "sbim": {"m": 2, "k": 3, "seed_prob": 0.2, "q1": 0.6, "q2": 0.15},
    "edge_faulty": {"n": 6, "contact_edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [1, 4]],
                    "r": 0.35, "p": 0.3},
}

# Recorded on the per-family loops that the shared block enumerator replaced.
MODEL_HASHES = {
    "independent": "ef3cf86de035143e",
    "islands": "b2e8a9a757e86d04",
    "nested": "3a87e11de133f205",
    "cosize": "cf46b566b75ffc10",
    "partial_regular": "dc038e68bf45a57a",
    "big_graph": "d67b084df263e391",
    "entropy_gap": "a4ed851b5a84dc6c",
    "random_regular": "fb405114b5cbf940",
    "community": "82470416ce35c30d",
    "sbim": "0f6c1ee0007b89bd",
    "edge_faulty": "1a178b6377a5a141",
}


def model_hash(family):
    graph, dist = build_model(ModelSpec(family, MODEL_SPECS[family]))
    digest = hashlib.sha256(repr((graph.n, graph.edge_masks)).encode())
    digest.update(dist.probs.tobytes())
    return digest.hexdigest()[:16]


def test_every_family_has_a_model_cell():
    assert set(MODEL_HASHES) == set(BUILDERS)


@pytest.mark.parametrize("family", sorted(MODEL_HASHES))
def test_models_unchanged(family):
    assert model_hash(family) == MODEL_HASHES[family]

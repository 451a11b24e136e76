"""Property tests of the shared compile/lattice/update paths against oracles.

Random small corpora (a word column and a numeric ``%v`` column), random
template sets and bounded weights (|w| <= 10), with K^T <= 500 so that
every tagging can be enumerated.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sapo import (
    Sequence,
    build_lattice,
    build_model,
    crf_stochastic_gradient,
    enumerate_all,
    forward_logz,
    path_score,
    sapo_update_term,
    score_sequence,
)

TAGS = ("X", "Y", "Z")
TEMPLATE_SETS = (
    "U00:%x[0,0]\nU01:%x[-1,0]\nB\n",
    "U00:%x[0,0]\nU01:%x[0,0]/%v[0,1]\nB\n",
    "U00:%x[-1,0]/%x[0,0]\nU01:%v[0,1]\n",
    "U00:%x[0,0]\nU01:%x[1,0]/%v[-1,1]\nB\n",
)
MAX_PATHS = 500
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def instances(draw):
    """(model with random weights, probe sequence, a tagging of it as ids)."""
    K = draw(st.integers(1, len(TAGS)))
    max_T = int(math.log(MAX_PATHS) / math.log(K)) if K > 1 else 8
    seqs = []
    for _ in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, min(max_T, 6)))
        words = draw(st.lists(st.sampled_from("abcd"), min_size=T, max_size=T))
        values = draw(st.lists(st.sampled_from(("0", "1", "-0.5", "2.25", "1e-3", "-3")),
                               min_size=T, max_size=T))
        gold = draw(st.lists(st.sampled_from(TAGS[:K]), min_size=T, max_size=T))
        seqs.append(Sequence(tokens=list(zip(words, values)), gold=gold))
    seqs.append(Sequence(tokens=[("a", "1")] * K, gold=list(TAGS[:K])))  # full tagset
    model = build_model(seqs, draw(st.sampled_from(TEMPLATE_SETS)), 2)
    seed = draw(st.integers(0, 2**32 - 1))
    model.weights[:] = np.random.default_rng(seed).uniform(-10, 10, model.index.n_features)
    probe = draw(st.sampled_from(seqs))
    path = draw(st.lists(st.integers(0, K - 1), min_size=len(probe), max_size=len(probe)))
    assert K ** len(probe) <= MAX_PATHS
    return model, probe, path


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@SETTINGS
@given(instances())
def test_score_sequence_equals_lattice_path_score(inst):
    model, probe, path = inst
    assert _close(score_sequence(model, probe, path), path_score(build_lattice(model, probe), path))


@SETTINGS
@given(instances())
def test_forward_logz_equals_enumeration(inst):
    model, probe, _ = inst
    lat = build_lattice(model, probe)
    scores = np.array(enumerate_all(lat).scores)
    top = scores.max()
    assert _close(forward_logz(lat), top + math.log(np.exp(scores - top).sum()))


@SETTINGS
@given(instances())
def test_exhaustive_sapo_term_equals_crf_gradient(inst):
    model, probe, _ = inst
    n = model.num_tags ** len(probe)
    crf = crf_stochastic_gradient(model, probe, 1.0, 7)
    sapo = sapo_update_term(model, probe, n, 1.0, 7)
    assert sapo.decay == crf.decay
    crf_d, sapo_d = dict(crf.items), dict(sapo.items)
    for fid in set(crf_d) | set(sapo_d):
        assert abs(crf_d.get(fid, 0.0) - sapo_d.get(fid, 0.0)) <= 1e-9

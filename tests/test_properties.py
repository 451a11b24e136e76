"""Property tests of the shared compile/lattice/update paths against oracles.

Random small corpora (a word column and a numeric ``%v`` column), random
template sets and bounded weights (|w| <= 10), with K^T <= 500 so that
every tagging can be enumerated.  Also: the exact and beam n-best searches
and Viterbi against enumeration on tie-heavy lattices, stacks of lattices
against the same lattices one at a time, and CoNLL and model-file round
trips with arbitrary non-whitespace token and tag strings.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sapo import (
    Corpus,
    Lattice,
    Sequence,
    astar_nbest,
    beam_nbest,
    build_lattice,
    build_model,
    crf_stochastic_gradient,
    enumerate_all,
    load_model,
    read_conll,
    save_model,
    write_conll,
    forward_logz,
    path_score,
    sapo_update_term,
    score_sequence,
    viterbi,
)
from sapo.features import compile_sequence, weight_views
from sapo.inference import compiled_objective, regularizer_value

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


# Few distinct values, so that many paths tie exactly or nearly.
TIE_VALUES = (-0.1, 0.0, 0.1, 0.2, 0.3, 0.7, 1.1)


@st.composite
def lattices(draw):
    K = draw(st.integers(1, 4))
    T = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cell = st.sampled_from(TIE_VALUES)
    else:
        cell = st.floats(-2.0, 2.0, allow_nan=False)
    emit = draw(st.lists(cell, min_size=T * K, max_size=T * K))
    trans = draw(st.lists(cell, min_size=K * K, max_size=K * K))
    lat = Lattice(emit=np.array(emit).reshape(T, K), trans=np.array(trans).reshape(K, K))
    return lat, draw(st.integers(1, K**T))


@settings(max_examples=300, deadline=None)
@given(lattices())
def test_astar_and_full_beam_scores_match_enumeration(case):
    # Scores agree rank by rank.  Exact search at n < K^T prunes, and two
    # scores that differ by rounding can tie once more terms are added, so
    # its paths are compared only when nothing is pruned.
    lat, n = case
    want = enumerate_all(lat).scores[:n]
    for nb in (astar_nbest(lat, n), beam_nbest(lat, n, lat.K**lat.T)):
        assert len(nb.paths) == n == len(set(nb.paths))
        for got, ref in zip(nb.scores, want):
            assert _close(got, ref)


@settings(max_examples=300, deadline=None)
@given(lattices())
def test_unpruned_search_lists_equal_enumeration(case):
    lat, n = case
    full = enumerate_all(lat)
    total = len(full.paths)
    for nb in (astar_nbest(lat, total), beam_nbest(lat, total, total)):
        assert nb.paths == full.paths and nb.scores == full.scores and nb.exhausted
    nb = beam_nbest(lat, n, total)
    assert nb.paths == full.paths[:n] and nb.scores == full.scores[:n]


@settings(max_examples=300, deadline=None)
@given(lattices())
def test_viterbi_is_the_exact_top_1(case):
    lat, _ = case
    path, score = viterbi(lat)
    assert tuple(path) == astar_nbest(lat, 1).paths[0]
    assert score == max(enumerate_all(lat).scores)


def _ties(draw, shape):
    cells = draw(st.lists(st.sampled_from(TIE_VALUES), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    return np.array(cells).reshape(shape)


@st.composite
def lattice_batches(draw):
    """Tie-heavy lattices with one K (1-5) and mixed T (1-6), and their transitions."""
    K = draw(st.integers(1, 5))
    emits = [_ties(draw, (draw(st.integers(1, 6)), K)) for _ in range(draw(st.integers(1, 8)))]
    return emits, _ties(draw, (K, K))


@settings(max_examples=200, deadline=None)
@given(lattice_batches())
def test_stacked_lattices_equal_single_lattices(batch):
    # Each length's lattices are searched, scored and summed as one stack.
    emits, trans = batch
    for T in {len(e) for e in emits}:
        group = [e for e in emits if len(e) == T]
        stack, singles = Lattice(np.stack(group), trans), [Lattice(e, trans) for e in group]
        found = viterbi(stack)
        assert [(path, score) for path, score in found] == [
            (nb.paths[0], nb.scores[0]) for nb in (astar_nbest(l, 1) for l in singles)
        ]
        paths = [path for path, _ in found]
        assert path_score(stack, paths) == [path_score(l, p) for l, p in zip(singles, paths)]
        assert forward_logz(stack) == [forward_logz(l) for l in singles]


FEATURELESS_TEMPLATES = (
    "U00:%x[0,0]/%v[0,1]\nB\n",
    "U00:%x[0,0]\nU01:%x[-1,0]/%v[0,1]\nB\n",
    "U00:%x[0,0]\nU01:%v[0,1]\n",
)


@st.composite
def compiled_corpora(draw):
    """(model with tie-heavy weights, labeled sequences compiled against it).

    K is 1-5 and T 1-6.  Unseen words and zero ``%v`` values leave positions
    without features; the last sequence starts with such a position.
    """
    K = draw(st.integers(1, 5))
    tags = ["t%d" % k for k in range(K)]

    def sequences(words, count):
        seqs = []
        for _ in range(count):
            T = draw(st.integers(1, 6))
            tokens = zip(draw(st.lists(st.sampled_from(words), min_size=T, max_size=T)),
                         draw(st.lists(st.sampled_from(("0", "1", "-0.5", "0.25", "-3")),
                                       min_size=T, max_size=T)))
            gold = draw(st.lists(st.sampled_from(tags), min_size=T, max_size=T))
            seqs.append(Sequence(tokens=list(tokens), gold=gold))
        return seqs

    train = sequences("ab", 3) + [Sequence(tokens=[("a", "1")] * K, gold=tags)]
    model = build_model(train, draw(st.sampled_from(FEATURELESS_TEMPLATES)), 2)
    model.weights[:] = _ties(draw, model.weights.shape)
    data = sequences("abz", draw(st.integers(1, 8)))
    data.append(Sequence(tokens=[("z", "0")] + data[0].tokens, gold=[tags[0]] + data[0].gold))
    return model, [compile_sequence(model, z, labeled=True) for z in data], data


@settings(max_examples=100, deadline=None)
@given(compiled_corpora())
def test_stacked_objective_and_emission_rows(case):
    model, compiled, data = case
    lattices = [build_lattice(model, z) for z in data]
    total = 0.7 * regularizer_value(model.weights)
    for lat, cs in zip(lattices, compiled):
        total += forward_logz(lat) - path_score(lat, cs.gold)
    assert compiled_objective(compiled, model.weights, model.index, 0.7) == total
    # Every emission row is bit for bit the sequential sum of its features' terms.
    emit_w = weight_views(model.weights, model.index)[0]
    for lat, cs in zip(lattices, compiled):
        for row, feats in zip(lat.emit, cs.pos_feats):
            want = np.zeros(model.num_tags)
            for rid, value in feats:
                want += value * emit_w[rid]
            assert row.tobytes() == want.tobytes()
    featureless = [lat.emit[t] for lat, cs in zip(lattices, compiled)
                   for t, feats in enumerate(cs.pos_feats) if not feats]
    assert featureless
    for row in featureless:
        assert row.tolist() == [0.0] * model.num_tags and not np.signbit(row).any()


# CoNLL columns are split on whitespace, so only non-whitespace strings round-trip.
WORDS = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
    min_size=1,
    max_size=6,
)
ROUND_TRIP_TEMPLATES = "U00:%x[0,0]\nU01:%x[-1,0]/%x[0,1]\nB\n"


@st.composite
def labeled_corpora(draw):
    n_columns = draw(st.integers(2, 3))
    tags = draw(st.lists(WORDS, min_size=1, max_size=4, unique=True))
    seqs = []
    for _ in range(draw(st.integers(1, 4))):
        T = draw(st.integers(1, 5))
        tokens = [tuple(draw(st.lists(WORDS, min_size=n_columns, max_size=n_columns)))
                  for _ in range(T)]
        gold = draw(st.lists(st.sampled_from(tags), min_size=T, max_size=T))
        seqs.append(Sequence(tokens=tokens, gold=gold))
    return Corpus(sequences=seqs, n_columns=n_columns)


def _weight_map(model):
    """(kind, raw string or tag, tag) -> weight, for every nonzero weight."""
    K = model.num_tags
    tag = model.tagset.tag
    out = {}
    for rid, raw in enumerate(model.index.raw_strings):
        for k in range(K):
            if model.weights[rid * K + k] != 0.0:
                out[("E", raw, tag(k))] = model.weights[rid * K + k]
    if model.index.transitions:
        base = model.index.transition_base
        for a in range(K):
            for b in range(K):
                if model.weights[base + a * K + b] != 0.0:
                    out[("T", tag(a), tag(b))] = model.weights[base + a * K + b]
    return out


@settings(max_examples=60, deadline=None)
@given(labeled_corpora(), st.data())
def test_conll_and_model_files_round_trip(corpus, data):
    model = build_model(corpus.sequences, ROUND_TRIP_TEMPLATES, corpus.n_columns)
    n = model.index.n_features
    sparse = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.floats(allow_nan=False, allow_infinity=False), max_size=n
    ))
    for fid, w in sparse.items():
        model.weights[fid] = w
    model.meta = {"config": {"mira_clip": math.inf, "algorithm": data.draw(WORDS)}}
    with tempfile.TemporaryDirectory() as tmp:
        conll, model_file = os.path.join(tmp, "c.conll"), os.path.join(tmp, "m.txt")
        write_conll(corpus, conll)
        back = read_conll(conll, labeled=True)
        save_model(model, model_file)
        loaded = load_model(model_file)
    assert back.sequences == corpus.sequences
    assert back.n_columns == corpus.n_columns
    assert loaded.tagset.tags == model.tagset.tags
    assert loaded.template_text == model.template_text
    assert loaded.meta == model.meta
    assert _weight_map(loaded) == _weight_map(model)

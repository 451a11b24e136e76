"""Property tests of the shared compile/lattice/update paths against oracles.

Random small corpora (a word column and a numeric ``%v`` column), random
template sets and bounded weights (|w| <= 10), with K^T <= 500 so that
every tagging can be enumerated.  Also: the exact and beam n-best searches
and Viterbi against enumeration on tie-heavy lattices, stacks of lattices
(with and without the g + h cut) against the same lattices one at a time,
the forward, forward-backward and g + h bound of ragged stacks against one
lattice's reference steps, bit for bit, and CoNLL and model-file round trips
with arbitrary non-whitespace token and tag strings.  The feature
expectation kernel and the sparse weight update against the per-item loops
they replace, bit for bit, and the block-streaming model writer against the
per-cell writer it replaces, byte for byte.  MIRA's box-constrained dual solve
against an enumeration of every (lower, free, upper) pattern.  The batched
gradient-deviation diagnostic against the per-probe composition it replaces,
byte for byte.
"""

import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sapo import (
    Corpus,
    FeatureIndex,
    Lattice,
    backward_viterbi,
    Model,
    Sequence,
    Tagset,
    TemplateError,
    astar_nbest,
    beam_nbest,
    build_lattice,
    build_feature_index,
    build_model,
    compile_templates,
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
from sapo import dataio, training
from sapo.features import (
    SPARSE,
    compile_corpus,
    compile_sequence,
    mass_rows,
    path_items,
    path_matrix,
    position_features,
    sparse_sum,
    sparse_vector,
    weight_views,
)
from sapo.inference import (
    DeltaReport,
    candidate_mixture,
    delta_csv_lines,
    delta_diagnostics,
    expected_items,
    forward_backward,
    labeled_sample,
    objective_sum,
    objective_terms,
    subtract_oracle,
    topn_distribution,
)
from sapo.lattice import (_DENSE_CELLS, _STACK_CELLS, NBestList, NonFiniteError, length_buckets,
                          searched, viterbi_tags)
from sapo.training import WeightState

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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(instances())
def test_score_sequence_path_score_and_enumeration_agree_bit_for_bit(inst):
    # One tagging score: every tagging's score_sequence is its path_score and its
    # enumerated score (the searches' scores, rank by rank), to the last bit.
    model, probe, _ = inst
    lat = build_lattice(model, probe)
    every = enumerate_all(lat)
    for path, score in zip(every.paths, every.scores):
        assert score_sequence(model, probe, path) == path_score(lat, path) == score


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


@settings(max_examples=200, deadline=None)
@given(lattice_batches(), st.integers(1, 40))
def test_stacked_nbest_scores_equal_enumeration(batch, n):
    # n*K^2 <= 1,000 makes no cut, so each length's lattices are searched as one stack.
    emits, trans = batch
    for T in {len(e) for e in emits}:
        group = [e for e in emits if len(e) == T]
        found = astar_nbest(Lattice(np.stack(group), trans), n)
        assert len(found) == len(group)
        for nb, emit in zip(found, group):
            full = enumerate_all(Lattice(emit, trans))
            assert nb.scores == full.scores[:n]
            assert nb.exhausted == (len(full.paths) <= n)
            if nb.exhausted:
                assert nb.paths == full.paths


def _cells(rng, kind, shape):
    if kind == "float":
        return rng.normal(size=shape)
    if kind == "integer":  # exact ties among sums
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "ties":
        return rng.choice(TIE_VALUES, size=shape)
    return np.zeros(shape)


CELL_KINDS = ("float", "integer", "ties", "zero")


@st.composite
def cut_stacks(draw):
    """(emission stack, transitions, n) with n*K^2 > 1,024, so that exact search
    cuts by g + h: K 2-16, T 1-5, 1-6 lattices, each of its own cell kind.  Zero
    and integer-valued lattices tie everywhere and take the near-tie branch, float
    ones rarely; K = 2 needs n >= 257 > K^T, and T = 1 keeps a single step."""
    K, T = draw(st.integers(2, 16)), draw(st.integers(1, 5))
    least = max(2, _DENSE_CELLS // (K * K) + 1)
    n = draw(st.integers(least, least + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(CELL_KINDS), min_size=1, max_size=6))
    emit = np.stack([_cells(rng, kind, (T, K)) for kind in kinds])
    return emit, _cells(rng, draw(st.sampled_from(CELL_KINDS)), (K, K)), n


@settings(max_examples=300, deadline=None)
@given(cut_stacks())
def test_stacked_cut_search_equals_single_lattices(case):
    # The g + h cut leaves each lattice its own survivor count, yet one search
    # of the stack finds each lattice's own list, bit for bit.
    emit, trans, n = case
    found = astar_nbest(Lattice(emit, trans), n)
    assert len(found) == len(emit)
    for nb, e in zip(found, emit):
        own = astar_nbest(Lattice(e, trans), n)
        assert (nb.paths, nb.exhausted, nb.n_requested) == (own.paths, own.exhausted, n)
        assert np.array(nb.scores).tobytes() == np.array(own.scores).tobytes()


RAGGED_KINDS = CELL_KINDS + ("-inf", "nan")


def _ragged_cells(rng, kind, shape):
    """``_cells``, or integer cells (exact ties) with one -inf or NaN cell."""
    if kind not in ("-inf", "nan"):
        return _cells(rng, kind, shape)
    cells = _cells(rng, "integer", shape)
    cells[tuple(rng.integers(0, d) for d in shape)] = -np.inf if kind == "-inf" else np.nan
    return cells


@st.composite
def ragged_stacks(draw):
    """(stack of lattices of mixed lengths, n): 1-8 lattices of lengths 1-12,
    longest first, K 2, 3 or 5, each lattice of its own cell kind, and n from
    {1, 2, 7, 60}: at K = 5, n = 60 makes the g + h cut, the other n the dense step."""
    K, n = draw(st.sampled_from((2, 3, 5))), draw(st.sampled_from((1, 2, 7, 60)))
    lengths = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=8)), reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emit = np.zeros((len(lengths), lengths[0], K))
    for row, T in zip(emit, lengths):
        row[:T] = _ragged_cells(rng, draw(st.sampled_from(RAGGED_KINDS)), (T, K))
    trans = _cells(rng, draw(st.sampled_from(CELL_KINDS)), (K, K))
    return Lattice(emit, trans, lengths), n


def _same(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def _infinite_cells_stack():
    """Two lattices of length 6 with +inf and -inf emission cells, and n = 208: NaN
    bounds leave lattice 0 no survivor, so the cut pads, and then lattice 1 has at most
    n extensions a step, which the cut keeps, pads left out, without ranking them."""
    emit = np.zeros((2, 6, 3))
    emit[0, 5, 2] = np.inf
    emit[1, [0, 1, 1, 2, 3], [2, 0, 2, 1, 1]] = np.inf
    emit[1, [2, 3, 3, 4], [2, 1, 2, 2]] = -np.inf
    return Lattice(emit, np.zeros((3, 3))), 208


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ragged_stacks())
# NaN bounds cut every survivor: two lattices end together with none left.
@example((Lattice(np.full((3, 5, 5), np.nan), np.zeros((5, 5)), [5, 3, 3]), 60))
@example(_infinite_cells_stack())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ragged_stack_equals_single_lattices(case):
    # One pass over a stack of mixed lengths gives each lattice what it gives alone.
    stack, n = case
    singles = [Lattice(e[:T], stack.trans) for e, T in zip(stack.emit, stack.lengths)]
    found = viterbi(stack)
    for (path, score), single in zip(found, singles):
        own_path, own_score = viterbi(single)
        assert list(path) == own_path and _same(score, own_score)
    paths = [path for path, _ in found]
    assert _same(path_score(stack, paths), [path_score(l, p) for l, p in zip(singles, paths)])
    for nb, single in zip(astar_nbest(stack, n), singles):
        own = astar_nbest(single, n)
        assert (nb.paths, nb.exhausted, nb.n_requested) == (own.paths, own.exhausted, n)
        assert _same(nb.scores, own.scores)
    assert _same(forward_logz(stack), [forward_logz(l) for l in singles])
    for marg, single in zip(forward_backward(stack), singles):
        own = forward_backward(single)
        assert _same(marg.logZ, own.logZ)
        assert marg.node.shape == own.node.shape and _same(marg.node, own.node)
        assert marg.edge.shape == own.edge.shape and _same(marg.edge, own.edge)


def _step_cells(rng, kind, shape):
    """``_cells``, or integer cells with one row (a position's tags, or a tag's
    successors) all -inf, or with one NaN cell."""
    cells = _cells(rng, "integer" if kind in ("-inf", "nan") else kind, shape)
    if kind == "-inf":
        cells[rng.integers(0, shape[0])] = -np.inf
    elif kind == "nan":
        cells[tuple(rng.integers(0, d) for d in shape)] = np.nan
    return cells


@st.composite
def recursion_stacks(draw):
    """A stack of 1-6 lattices of lengths 1-9, longest first, K 1-9, each lattice and
    the transitions of their own cell kind: float, integer, tied or zero cells, or
    integer ones with a -inf row or a NaN cell."""
    K = draw(st.integers(1, 9))
    lengths = sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)), reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(RAGGED_KINDS)
    emit = np.zeros((len(lengths), lengths[0], K))
    for row, T in zip(emit, lengths):
        row[:T] = _step_cells(rng, draw(kinds), (T, K))
    return Lattice(emit, _step_cells(rng, draw(kinds), (K, K)), lengths)


def _k45_stack():
    rng = np.random.default_rng(45)
    lengths = [7, 5, 5, 2, 1]
    emit = np.zeros((len(lengths), lengths[0], 45))
    for row, T, kind in zip(emit, lengths, ("integer", "ties", "-inf", "float", "nan")):
        row[:T] = _step_cells(rng, kind, (T, 45))
    return Lattice(emit, _step_cells(rng, "ties", (45, 45)), lengths)


def _bits(a):
    """The bytes of ``a``, every NaN made one NaN: its sign depends on which NumPy
    loop (a lattice's or a stack's shape) made it."""
    a = np.array(a, float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _reference_lse(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis)


def _reference_recursions(emit, trans):
    """One lattice's log Z, node and edge marginals and g + h bound, a step at a time."""
    T, K = emit.shape
    alpha, beta, h = np.empty((T, K)), np.zeros((T, K)), np.zeros((T, K))
    alpha[0] = emit[0]
    for t in range(1, T):
        alpha[t] = emit[t] + _reference_lse(alpha[t - 1][:, None] + trans, 0)
    m = alpha[-1].max()
    logz = float(m) + math.log(float(np.exp(alpha[-1] - m).sum()))
    edge = np.empty((T - 1, K, K))
    for t in range(T - 2, -1, -1):
        ahead = emit[t + 1] + beta[t + 1]
        beta[t] = _reference_lse(trans + ahead[None, :], 1)
        edge[t] = np.exp(alpha[t][:, None] + trans + ahead[None, :] - logz)
        h[t] = (trans.T + (emit[t + 1] + h[t + 1])[:, None]).max(0)
    return logz, np.exp(alpha + beta - logz), edge, h


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(recursion_stacks())
@example(_k45_stack())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_recursions_round_as_one_lattice_steps(stack):
    # The forward, forward-backward and g + h bound of a ragged stack equal, bit for
    # bit, each lattice's own steps: logsumexp(alpha[:, None] + trans, 0) and
    # (trans.T + v[:, None]).max(0), reduced over the previous tag in order.
    logz, margs, bound = forward_logz(stack), forward_backward(stack), backward_viterbi(stack)
    for b, T in enumerate(stack.lengths):
        e = stack.emit[b, :T]
        own_logz, node, edge, h = _reference_recursions(e, stack.trans)
        assert _bits(logz[b]) == _bits(margs[b].logZ) == _bits(own_logz)
        assert _bits(margs[b].node) == _bits(node) and _bits(margs[b].edge) == _bits(edge)
        assert _bits(bound[b, :T]) == _bits(h) and not bound[b, T:].any()
        single = Lattice(e, stack.trans)
        assert _bits(forward_logz(single)) == _bits(own_logz)
        assert _bits(backward_viterbi(single)) == _bits(h)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_minus_inf_row_gives_the_lone_lattice_results_up_to_a_nans_sign():
    # Lattice 2 of the K = 45 example has a whole -inf emission row, so its log Z and
    # marginals are NaN.  The sign bit of such a NaN depends on which NumPy loop made
    # it, the stack's or the lone lattice's; every other value is the lone lattice's.
    stack = _k45_stack()
    T = stack.lengths[2]
    assert np.isneginf(stack.emit[2, :T]).all(axis=1).any()
    single = Lattice(stack.emit[2, :T], stack.trans)
    logz = forward_logz(stack)[2]
    assert math.isnan(logz) and _bits(logz) == _bits(forward_logz(single))
    marg, own = forward_backward(stack)[2], forward_backward(single)
    assert _bits(marg.logZ) == _bits(own.logZ)
    assert _bits(marg.node) == _bits(own.node) and _bits(marg.edge) == _bits(own.edge)
    assert _bits(backward_viterbi(stack)[2, :T]) == _bits(backward_viterbi(single))
    (path, score), (own_path, own_score) = viterbi(stack)[2], viterbi(single)
    assert list(path) == own_path and _bits(score) == _bits(own_score)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=2, max_size=8),
       st.sampled_from((None, 24, 60)))
def test_searched_names_the_first_failing_sequence_of_a_ragged_stack(rows, cells):
    # Sequences with the word "z" score -inf.  All share one stack, longest first,
    # yet the check names the lowest-numbered failing one.  A budget of 24 or 60
    # cells (K*n*max(K, T) a sequence, K = 2) splits them into several stacks, and
    # every stack is checked before the lowest is named.
    seqs = [Sequence(tokens=[("a",)] * (T - 1) + [("z" if bad else "b",)], gold=["X"] * T)
            for T, bad in rows]
    model = build_model(seqs + [Sequence(tokens=[("a",), ("z",)], gold=["X", "Y"])],
                        "U00:%x[0,0]\nB\n", 1)
    model.weights[:] = np.random.default_rng(len(rows)).normal(size=model.weights.shape)
    emit_w, trans_w = weight_views(model.weights, model.index)
    emit_w, z = emit_w.copy(), model.index.lookup_raw("U00=z")
    assert z is not None
    emit_w[z] = -np.inf
    compiled = compile_corpus(model, seqs)
    lengths = sorted((T for T, _ in rows), reverse=True)
    failing = [i for i, (_, bad) in enumerate(rows) if bad]
    with mock.patch("sapo.lattice._STACK_CELLS", cells or _STACK_CELLS):
        for n, search in ((1, lambda lat, n: viterbi(lat)), (3, astar_nbest)):
            stacks = [stack.lengths for _, stack in length_buckets(compiled, (emit_w, trans_w), n)]
            assert sum(stacks, []) == lengths
            if cells is None:
                assert len(stacks) == 1
            if failing:
                with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence %d$"
                                   % failing[0]):
                    searched(compiled, (emit_w, trans_w), search, n)
            else:
                assert len(searched(compiled, (emit_w, trans_w), search, n)) == len(rows)


FEATURELESS_TEMPLATES = (
    "U00:%x[0,0]/%v[0,1]\nB\n",
    "U00:%x[0,0]\nU01:%x[-1,0]/%v[0,1]\nB\n",
    "U00:%x[0,0]\nU01:%v[0,1]\n",
    # three features a position, so that the order of a row's sum shows
    "U00:%x[0,0]\nU01:%x[-1,0]/%v[0,1]\nU02:%x[1,0]/%v[0,1]\nB\n",
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
    total = 0.7 * (0.5 * float(np.dot(model.weights, model.weights)))
    for lat, cs in zip(lattices, compiled):
        total += forward_logz(lat) - path_score(lat, cs.gold)
    terms = objective_terms(compiled, model.weights, model.index)
    assert objective_sum(terms, model.weights, 0.7) == total
    # Every emission row is bit for bit the sequential sum of its features' terms,
    # taken from the templates and the index rather than the compiled arrays.
    emit_w = weight_views(model.weights, model.index)[0]
    featureless = []
    for lat, z in zip(lattices, data):
        for t, row in enumerate(lat.emit):
            want = np.zeros(model.num_tags)
            feats = position_features(z.tokens, t, model.templates, model.n_columns)
            for raw, value in feats:
                rid = model.index.lookup_raw(raw)
                if rid is not None:
                    want += value * emit_w[rid]
            assert row.tobytes() == want.tobytes()
            if all(model.index.lookup_raw(raw) is None for raw, _ in feats):
                featureless.append(row)
    assert featureless
    for row in featureless:
        assert row.tolist() == [0.0] * model.num_tags and not np.signbit(row).any()
    # Every stack's rows are the single lattices' rows, byte for byte, each
    # zero-padded to the stack's longest length.
    views, seen = weight_views(model.weights, model.index), []
    for n in (1, 5):
        for idx, stack in length_buckets(compiled, views, n):
            padded = np.zeros(stack.emit.shape)
            for row, i in zip(padded, idx):
                row[: lattices[i].T] = lattices[i].emit
            assert stack.emit.tobytes() == padded.tobytes()
            assert stack.lengths == [lattices[i].T for i in idx]
            seen.extend(idx)
    assert sorted(seen) == sorted(2 * list(range(len(compiled))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(compiled_corpora(), st.sampled_from((1, 2, 7, 60)), st.integers(2, 400))
def test_the_stack_split_changes_no_output(case, n, cells):
    # One lattice a stack (a cache bound of 1), the default split, the split without
    # the cache bound (2^40) and a drawn bound in between give the same bytes.
    model, compiled, _ = case
    views = weight_views(model.weights, model.index)

    def outputs():
        found = searched(compiled, views, astar_nbest, n)
        return (viterbi_tags(model, compiled, model.weights),
                np.array(objective_terms(compiled, model.weights, model.index)).tobytes(),
                [(nb.paths, nb.exhausted, np.array(nb.scores).tobytes()) for nb in found])

    want = outputs()
    for bound in (1, cells, 2**40):
        with mock.patch("sapo.lattice._CACHE_CELLS", bound):
            if bound == 1:
                assert all(len(idx) == 1 for idx, _ in length_buckets(compiled, views, n))
            assert outputs() == want


# A bare %v template fires the same raw feature at every position, so ids
# collect many terms; the second set has no transitions.
KERNEL_TEMPLATES = (
    "U00:%v[0,1]\nU01:%x[0,0]\nU02:%x[0,0]/%v[-1,1]\nB\n",
    "U00:%v[0,1]\nU01:%x[-1,0]/%x[0,0]\n",
)
KERNEL_VALUES = ("1", "-0.5", "0.3", "2.75", "-3.1", "0.1", "1e-3", "0", "-7.7")
MASSES = st.floats(1e-3, 1.0, allow_nan=False)


@st.composite
def kernel_cases(draw):
    """(model with random weights, a labeled probe with unseen words, its compiled form)."""
    K = draw(st.integers(1, 3))
    tags = ["t%d" % k for k in range(K)]

    def sequence(words, max_T):
        T = draw(st.integers(1, max_T))
        tokens = zip(draw(st.lists(st.sampled_from(words), min_size=T, max_size=T)),
                     draw(st.lists(st.sampled_from(KERNEL_VALUES), min_size=T, max_size=T)))
        gold = draw(st.lists(st.sampled_from(tags), min_size=T, max_size=T))
        return Sequence(tokens=list(tokens), gold=gold)

    train = [sequence("ab", 6), Sequence(tokens=[("a", "1")] * K, gold=tags)]
    model = build_model(train, draw(st.sampled_from(KERNEL_TEMPLATES)), 2)
    seed = draw(st.integers(0, 2**32 - 1))
    model.weights[:] = np.random.default_rng(seed).uniform(-2, 2, model.index.n_features)
    probe = sequence("abz", 14)
    return model, probe, compile_sequence(model, probe, labeled=True)


def _reference_expectation(model, probe, tag_mass, pair_mass):
    """Today's loop: a per-id dict over positions, then tags, then features."""
    K, index = model.num_tags, model.index
    acc = {}
    for t, masses in enumerate(tag_mass):
        feats = position_features(probe.tokens, t, model.templates, model.n_columns)
        for tag, mass in masses:
            for raw, value in feats:
                rid = index.lookup_raw(raw)
                if rid is not None:
                    acc[rid * K + tag] = acc.get(rid * K + tag, 0.0) + mass * value
    if index.transitions:
        for prev, cur, mass in pair_mass:
            fid = index.transition_base + prev * K + cur
            acc[fid] = acc.get(fid, 0.0) + mass
    return sorted((fid, v) for fid, v in acc.items() if v != 0.0)


def _assert_same_vector(got, want):
    assert got["id"].tolist() == [fid for fid, _ in want]
    assert got["value"].tobytes() == np.array([v for _, v in want], dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.data())
def test_expectation_kernel_equals_sequential_loop(case, data):
    model, probe, cs = case
    K, T = model.num_tags, len(probe)
    paths = data.draw(st.lists(st.lists(st.integers(0, K - 1), min_size=T, max_size=T),
                               min_size=1, max_size=5))
    probs = data.draw(st.lists(MASSES, min_size=len(paths), max_size=len(paths)))

    point = [((y, 1.0),) for y in paths[0]]
    point_pairs = [(a, b, 1.0) for a, b in zip(paths[0], paths[0][1:])]
    _assert_same_vector(path_items(cs, paths[0], K),
                        _reference_expectation(model, probe, point, point_pairs))

    tally = [{} for _ in range(T)]
    for path, p in zip(paths, probs):
        for d, y in zip(tally, path):
            d[y] = d.get(y, 0.0) + p
    pairs = [(a, b, p) for path, p in zip(paths, probs) for a, b in zip(path, path[1:])]
    _assert_same_vector(candidate_mixture(cs, paths, probs, K),
                        _reference_expectation(model, probe, [d.items() for d in tally], pairs))

    marg = forward_backward(build_lattice(model, probe))
    node = [[(k, p) for k, p in enumerate(row) if p != 0.0] for row in marg.node.tolist()]
    edge = marg.edge.sum(axis=0)
    chain_pairs = [(a, b, edge[a, b]) for a, b in zip(*np.nonzero(edge))]
    _assert_same_vector(expected_items(cs, marg, K),
                        _reference_expectation(model, probe, node, chain_pairs))

    # One row per path of MIRA's candidate matrix: path_items with minus=gold on its nonzeros.
    matrix, ids = path_matrix(cs, paths, K, cs.gold)
    for row, path in zip(matrix, paths):
        nz = row.nonzero()[0]
        assert (sparse_vector(ids[nz], row[nz]).tobytes()
                == path_items(cs, path, K, cs.gold).tobytes())

    # With minus=gold each mass's term is E[F] - F(x, y*), byte for byte the
    # former composition with subtract_oracle.
    oracle = path_items(cs, cs.gold, K)
    for term, mass in ((path_items(cs, paths[0], K, cs.gold), path_items(cs, paths[0], K)),
                       (candidate_mixture(cs, paths, probs, K, cs.gold),
                        candidate_mixture(cs, paths, probs, K)),
                       (expected_items(cs, marg, K, cs.gold), expected_items(cs, marg, K))):
        assert term.tobytes() == subtract_oracle(mass, oracle).tobytes()


def _assert_stacks_equal_one_row_calls(cs, K, T, rng):
    """``mass_rows`` on an S-row stack of taggings, then on a tally of S sets, gives
    byte for byte the rows of S calls that each take one row of both."""
    S, P = int(rng.integers(1, 5)), int(rng.integers(0, 6))
    y = rng.integers(0, K, (S, T))
    mass = rng.uniform(-1.0, 1.0, (S, T, K))
    pairs, pair_mass = rng.integers(0, K * K, P), rng.uniform(-1.0, 1.0, (S, P))
    stacked = mass_rows(cs, [y, (mass, pairs, pair_mass)], K)
    assert stacked.shape == (2 * S, len(cs.bases) * K)
    for s in range(S):
        one = mass_rows(cs, [y[s:s + 1], (mass[s:s + 1], pairs, pair_mass[s:s + 1])], K)
        assert one[0].tobytes() == stacked[s].tobytes()
        assert one[1].tobytes() == stacked[S + s].tobytes()


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.integers(0, 2**32 - 1))
def test_mass_rows_stack_equals_one_row_calls(case, seed):
    model, probe, cs = case
    _assert_stacks_equal_one_row_calls(cs, model.num_tags, len(probe),
                                       np.random.default_rng(seed))


@pytest.mark.parametrize("K, T", [(1, 1), (1, 4), (3, 1), (2, 5)])
@pytest.mark.parametrize("template", KERNEL_TEMPLATES)  # with and without B
@pytest.mark.parametrize("seen", [True, False])  # unseen words of value 0 fire nothing
def test_mass_rows_stack_at_one_tag_and_one_position(K, T, template, seen):
    tags = ["t%d" % k for k in range(K)]
    train = [Sequence(tokens=[("a", "1"), ("b", "-0.5")], gold=[tags[0], tags[-1]]),
             Sequence(tokens=[("a", "1")] * K, gold=tags)]
    model = build_model(train, template, 2)
    probe = Sequence(tokens=[("ab"[t % 2], KERNEL_VALUES[t]) if seen else ("z", "0")
                             for t in range(T)], gold=[tags[t % K] for t in range(T)])
    cs = compile_sequence(model, probe, labeled=True)
    for seed in range(20):
        _assert_stacks_equal_one_row_calls(cs, K, T, np.random.default_rng(seed))


@st.composite
def box_duals(draw):
    """(G, b, C): G = D D^T of nc <= 4 nonzero integer rows D, often rank-deficient."""
    nc = draw(st.integers(1, 4))
    rank = draw(st.integers(1, nc))
    ints = st.integers(-3, 3)
    a = np.array(draw(st.lists(st.lists(ints, min_size=rank, max_size=rank),
                               min_size=nc, max_size=nc)), dtype=float)
    basis = np.array(draw(st.lists(st.lists(ints, min_size=5, max_size=5),
                                   min_size=rank, max_size=rank)), dtype=float)
    d = a @ basis
    d[~d.any(axis=1), 0] = 1.0  # MIRA drops candidates with dF = 0
    b = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=nc, max_size=nc))
    return (d @ d.T).tolist(), b, draw(st.floats(0.01, 100.0))


def _best_vertex_objective(G, b, C):
    """max b.a - a.G.a/2 over every (lower, free, upper) pattern whose free block is
    nonsingular and whose stationary point lies in the box.  Some optimum has such a
    pattern: along a null direction of a singular free block the objective is constant
    at an optimum, so a free variable can be moved to a bound."""
    G, b, nc = np.array(G), np.array(b), len(b)
    best = -math.inf
    for pattern in np.ndindex(*(3,) * nc):
        a = np.array([C if p == 2 else 0.0 for p in pattern])
        free = [k for k, p in enumerate(pattern) if p == 1]
        if free:
            block = G[np.ix_(free, free)]
            if np.linalg.matrix_rank(block) < len(free):
                continue
            a[free] = np.linalg.solve(block, b[free] - np.delete(G[free], free, 1)
                                      @ np.delete(a, free))
            if (a < -1e-9).any() or (a > C * (1 + 1e-9)).any():
                continue
        best = max(best, b @ a - a @ G @ a / 2)
    return best


@settings(max_examples=200, deadline=None)
@given(box_duals())
# A round whose true gain, about 1.9e-8, rounds away beside the objective's value of 0.5.
@example(([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 4.0, -8.0],
           [0.0, 0.0, -8.0, 16.0]], [0.0, 1.0, 0.0, 3.867127429401609e-08], 1.0))
def test_box_dual_solve_equals_vertex_enumeration(case):
    G, b, C = case
    alpha = training._box_dual(G, b, C)
    a = np.array(alpha)
    assert ((0.0 <= a) & (a <= C)).all()
    assert _close(b @ a - a @ np.array(G) @ a / 2, _best_vertex_objective(G, b, C))
    if len(b) == 1:
        assert alpha == [min(C, max(0.0, b[0] / G[0][0]))]


UPDATE_VALUES = st.floats(-5.0, 5.0, allow_nan=False).filter(lambda x: x != 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0, allow_nan=False),
                          st.dictionaries(st.integers(0, 30), UPDATE_VALUES, min_size=0, max_size=12)),
                min_size=1, max_size=5))
def test_sparse_sum_and_subtraction_equal_dict_loops(terms):
    vectors = [(c, sparse_vector(sorted(d), [d[fid] for fid in sorted(d)])) for c, d in terms]
    acc = {}  # MIRA's former update loop: zero sums kept
    for c, d in terms:
        for fid in sorted(d):
            acc[fid] = acc.get(fid, 0.0) + c * d[fid]
    _assert_same_vector(sparse_sum(vectors), sorted(acc.items()))
    diff = dict(terms[0][1])  # the former subtract_oracle: exact zeros dropped
    for fid, value in terms[-1][1].items():
        diff[fid] = diff.get(fid, 0.0) - value
    _assert_same_vector(subtract_oracle(vectors[0][1], vectors[-1][1]),
                        sorted((fid, v) for fid, v in diff.items() if v != 0.0))


def _reference_sparse_add(state, items, coeff):
    """The per-pair update loop that ``WeightState.sparse_add`` replaces."""
    v, c = state.v, state.scale
    for fid, value in items:
        if state.averaging:
            state.acc[fid] += v[fid] * (state.cum_scale - state.last_cum[fid])
            state.last_cum[fid] = state.cum_scale
        v[fid] += coeff * value / c


OPERATIONS = st.one_of(
    st.tuples(st.just("add"), st.dictionaries(st.integers(0, 11), UPDATE_VALUES, min_size=1),
              UPDATE_VALUES, st.booleans()),
    st.tuples(st.just("decay"), st.floats(0.05, 1.0)),
    st.tuples(st.just("end")),
)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.sampled_from((training.SCALE_FLOOR, 0.3, 0.9)),
       st.lists(OPERATIONS, max_size=40))
def test_sparse_add_equals_per_pair_loop(averaging, floor, operations):
    # A high floor folds the scale into the weights every few decays.
    states = [WeightState(12, averaging=averaging) for _ in range(2)]
    with mock.patch.object(training, "SCALE_FLOOR", floor):
        for op in operations:
            for i, state in enumerate(states):
                if op[0] == "add":
                    items = sorted(op[1].items())
                    if i:
                        _reference_sparse_add(state, items, op[2])
                    else:
                        # as (id, value) pairs, or as a sparse vector array
                        state.sparse_add(items if op[3] else np.array(items, SPARSE), op[2])
                elif op[0] == "decay":
                    state.decay(op[1])
                else:
                    state.end_sample()
    got, want = states
    assert got.scale == want.scale and got.v.tobytes() == want.v.tobytes()
    if averaging:
        assert got.acc.tobytes() == want.acc.tobytes()
        assert got.last_cum.tobytes() == want.last_cum.tobytes()
        assert got.averaged_weights().tobytes() == want.averaged_weights().tobytes()


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


def _reference_model_text(model):
    """A model file as the per-cell writer wrote it: every cell of both tables
    in row order, zeros (and -0.0) left out, weights in shortest ``%r`` form."""
    tags = model.tagset.tags
    text = model.template_text
    if text and not text.endswith("\n"):
        text += "\n"
    out = ["version\t1\n", "columns\t%d\n" % model.n_columns, "tags\t%s\n" % "\t".join(tags),
           "config\t%s\n" % json.dumps(model.meta, sort_keys=True), "templates-begin\n", text,
           "templates-end\n"]
    tables = zip("ET", weight_views(model.weights, model.index), (model.index.raw_strings, tags))
    for kind, table, names in tables:
        for name, row in zip(names, table):
            for tag, w in zip(tags, row.tolist()):
                if w != 0.0:
                    out.append("%s\t%s\t%s\t%r\n" % (kind, name, tag, w))
    return "".join(out)


EDGE_WEIGHTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16, 1e-5, 0.1 + 0.2, 1e300]
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_model_writer_bytes_equal_per_cell_writer(data):
    K = data.draw(st.integers(1, 4), label="K")
    block = data.draw(st.sampled_from([dataio._WRITE_CELLS, 1, 7]), label="writer block")
    # up to several blocks of rows; at the real block size, sometimes just over one block
    n_words = data.draw(st.integers(1, 3 * max(1, block // K)) if block < 100
                        else st.sampled_from([1, 5, 40, block // K + 3]), label="rows")
    tags = ["t%d" % k for k in range(K)]
    seq = Sequence(tokens=[("w%d" % (i % n_words),) for i in range(max(n_words, K))],
                   gold=[tags[i % K] for i in range(max(n_words, K))])
    model = build_model([seq], data.draw(st.sampled_from(["U00:%x[0,0]\nB\n", "U00:%x[0,0]"])), 1)
    pool = data.draw(st.lists(EDGE_WEIGHTS | st.floats(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).choice(np.array(pool + [0.0]), model.index.n_features)
    model.weights[:] = cells
    model.meta = {"seed": seed}
    out = io.StringIO()
    with mock.patch.object(dataio, "_WRITE_CELLS", block):
        save_model(model, out)
    assert out.getvalue() == _reference_model_text(model)

    loaded = load_model(io.StringIO(out.getvalue()))
    # rows without a nonzero weight are not stored, and -0.0 is stored as nothing
    emit, trans = weight_views(model.weights, model.index)
    kept = (emit != 0.0).any(axis=1)
    assert loaded.index.raw_strings == [r for r, k in zip(model.index.raw_strings, kept) if k]
    want = np.concatenate([emit[kept].ravel(), trans.ravel() if model.index.transitions else []])
    assert loaded.weights.tobytes() == (want + 0.0).tobytes()
    if kept.all():
        assert loaded.weights.tobytes() == (model.weights + 0.0).tobytes()


# The corpus compile against the per-position extraction it replaced.  Some cases draw
# cells from the whole pool, so %v atoms meet non-numeric and non-finite cells, and some
# draw a column past the data, so both paths must fail with the same message.
CELLS = ("a", "b", "0", "-0.5", "1", "2.5", "x", "nan")


def _reference_features(tokens, t, templates, n_columns):
    """Raw (string, value) features at position ``t``, one atom at a time."""
    def cell(pos, col):
        if col >= n_columns:
            raise TemplateError("unknown column reference %d (data has %d columns)"
                                % (col, n_columns))
        if pos < 0:
            return "_B-%d_" % (-pos)
        if pos >= len(tokens):
            return "_B+%d_" % (pos - len(tokens) + 1)
        return tokens[pos][col]

    out = []
    for tpl in templates:
        if tpl.transition:
            continue
        parts, value, skip = [], 1.0, False
        for atom in tpl.atoms:
            pos = t + atom.row
            if not atom.numeric:
                parts.append(cell(pos, atom.col))
                continue
            if pos < 0 or pos >= len(tokens):
                skip = True  # no numeric cell to read beyond the boundary
                break
            text = cell(pos, atom.col)
            try:
                value = float(text)
            except ValueError:
                raise TemplateError("template %s: non-numeric cell %r for %%v atom"
                                    % (tpl.name, text)) from None
            if not math.isfinite(value):
                raise TemplateError("template %s: non-finite cell %r for %%v atom"
                                    % (tpl.name, text))
        if not skip and value != 0.0:
            out.append((tpl.name + "=" + "/".join(parts), value))
    return out


def _reference_compile(seqs, templates, n_columns, rid_of):
    """Per sequence (rids, vals, counts): each position's features whose ``rid_of`` id
    is not None, positions in order."""
    out = []
    for seq in seqs:
        feats = [[(rid, value) for raw, value in
                  _reference_features(seq.tokens, t, templates, n_columns)
                  if (rid := rid_of(raw)) is not None] for t in range(len(seq))]
        flat = [f for fs in feats for f in fs]
        out.append((np.array([rid for rid, _ in flat], dtype=np.intp),
                    np.array([value for _, value in flat], dtype=float),
                    np.array([len(fs) for fs in feats], dtype=np.intp)))
    return out


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # the type and message are compared
        return type(e), str(e)


def _same_arrays(got, want):
    assert len(got) == len(want)
    for cs, (rids, vals, counts) in zip(got, want):
        for a, b in ((cs.rids, rids), (cs.vals, vals), (cs.counts, counts)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def extraction_cases(draw):
    """(training corpus, decode corpus, templates, column count)."""
    n_columns = draw(st.integers(1, 3))
    cells = st.sampled_from(CELLS if draw(st.booleans()) else CELLS[:6])
    cols = st.integers(0, n_columns - (draw(st.integers(0, 3)) > 0))  # sometimes one too far

    def corpus(words):
        seqs = []
        for _ in range(draw(st.integers(1, 4))):
            T = draw(st.integers(1, 6))
            tokens = [(draw(st.sampled_from(words)),) + tuple(draw(st.lists(
                cells, min_size=n_columns - 1, max_size=n_columns - 1))) for _ in range(T)]
            seqs.append(Sequence(tokens=tokens, gold=["t"] * T))
        return seqs

    lines = []
    for i in range(draw(st.integers(1, 4))):
        n_atoms = draw(st.integers(1, 3))
        numeric = draw(st.integers(-1, n_atoms - 1))  # which atom is %v; -1: none
        lines.append("U%d:" % i + "/".join(
            "%%%s[%d,%d]" % ("v" if k == numeric else "x", draw(st.integers(-3, 3)), draw(cols))
            for k in range(n_atoms)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "B")
    return corpus(CELLS[:4]), corpus(CELLS), compile_templates("\n".join(lines)), n_columns


@settings(max_examples=200, deadline=None)
@given(extraction_cases())
def test_corpus_compile_equals_per_position_extraction(case):
    train, probe, templates, n_columns = case
    tagset = Tagset(["t"])
    ref = FeatureIndex(1, any(t.transition for t in templates))
    want = _outcome(lambda: _reference_compile(train, templates, n_columns, ref.add_raw))
    compiled = []
    index = _outcome(lambda: build_feature_index(train, templates, tagset, n_columns, compiled))
    for seq in train:
        for t in range(len(seq)):
            assert (_outcome(lambda: position_features(seq.tokens, t, templates, n_columns))
                    == _outcome(lambda: _reference_features(seq.tokens, t, templates,
                                                            n_columns)))
    if isinstance(want, tuple):
        assert index == want
        return
    assert index.raw_strings == ref.raw_strings
    _same_arrays(compiled, want)
    assert [cs.gold for cs in compiled] == [[0] * len(seq) for seq in train]

    model = Model(tagset, index, templates, np.zeros(index.n_features), n_columns)
    want = _outcome(lambda: _reference_compile(probe, templates, n_columns, index.raw_ids.get))
    got = _outcome(lambda: compile_corpus(model, probe))
    if isinstance(want, tuple):
        assert got == want
        return
    _same_arrays(got, want)
    _same_arrays([compile_sequence(model, seq, labeled=True) for seq in probe], want)


# Each set fires nothing on the unseen single token ("z", "0"); the first two have no B.
CELL_TEMPLATES = (
    "U00:%x[0,0]\n",
    "U00:%x[0,0]/%v[0,1]\nU01:%x[1,0]/%x[0,0]\n",
    "U00:%x[0,0]\nB\n",
    "U00:%x[0,0]\nU01:%x[-1,0]/%v[0,1]\nB\n",
)


@st.composite
def cell_cases(draw):
    """(model, labeled training corpus, probe corpus with unseen words): T 1-5, K 1-4."""
    K = draw(st.integers(1, 4))
    tags = ["t%d" % k for k in range(K)]

    def sequences(words, count):
        seqs = []
        for _ in range(count):
            T = draw(st.integers(1, 5))
            tokens = zip(draw(st.lists(st.sampled_from(words), min_size=T, max_size=T)),
                         draw(st.lists(st.sampled_from(("0", "1", "-2.5")), min_size=T,
                                       max_size=T)))
            seqs.append(Sequence(tokens=list(tokens), gold=draw(st.lists(
                st.sampled_from(tags), min_size=T, max_size=T))))
        return seqs

    train = sequences("abc", draw(st.integers(1, 4))) + [
        Sequence(tokens=[("a", "1")] * K, gold=tags), Sequence(tokens=[("b", "1")], gold=tags[:1])]
    probe = sequences("abz", draw(st.integers(0, 4))) + [Sequence(tokens=[("z", "0")],
                                                                  gold=tags[-1:])]
    return train, draw(st.sampled_from(CELL_TEMPLATES)), draw(st.permutations(probe))


def _reference_cells(cs, index):
    """The update kernel's (bases, bins) of one sequence: its distinct raw ids in order,
    then with transitions the K rows n_raw + prev, each feature's bin by searchsorted."""
    K, rows = index.num_tags, sorted(set(cs.rids.tolist()))
    if index.transitions:
        rows.extend(range(index.n_raw, index.n_raw + K))
    rows = np.array(rows, dtype=np.intp)
    return rows * K, rows.searchsorted(cs.rids) * K


@settings(max_examples=150, deadline=None)
@given(cell_cases())
def test_compile_time_cells_equal_per_sequence_formula(case):
    train, templates, probe = case
    compiled = []
    model = build_model(train, templates, 2, compiled)
    labeled = [compiled, compile_corpus(model, probe, labeled=True),
               [compile_sequence(model, seq, labeled=True) for seq in probe]]
    featureless = 0
    for corpus in labeled:
        for cs in corpus:
            for got, want in zip((cs.bases, cs.bins), _reference_cells(cs, model.index)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            featureless += len(cs.rids) == 0
    assert featureless >= 2  # the unseen ("z", "0") in both probe compiles
    assert all(len(cs.counts) == 1 for cs in labeled[0][-1:])  # a single token
    for cs in compile_corpus(model, probe) + [compile_sequence(model, probe[0])]:
        assert cs.bases is None and cs.bins is None


# With and without B; the last fires three features a position.
DIAGNOSE_TEMPLATES = TEMPLATE_SETS[:3] + FEATURELESS_TEMPLATES[3:]


@st.composite
def diagnose_cases(draw):
    """(model, labeled probes of mixed lengths, n-list) for the batched diagnostic.

    K is 2, 3, 6 or 12 and T 1-6; the weights are float or tie-heavy.  The n-list
    may repeat values and holds n from {1, 2, c, c + 1, K^2, 40}, c = 1,024 // K^2
    the largest n that exact search runs without the g + h cut: K^T is at most
    40 for the short probes at K = 2 and 3, and at K = 2 no n reaches the cut."""
    K = draw(st.sampled_from((2, 3, 6, 12)))
    tags = ["t%d" % k for k in range(K)]

    def sequence(T):
        tokens = zip(draw(st.lists(st.sampled_from("abz"), min_size=T, max_size=T)),
                     draw(st.lists(st.sampled_from(KERNEL_VALUES), min_size=T, max_size=T)))
        gold = draw(st.lists(st.sampled_from(tags), min_size=T, max_size=T))
        return Sequence(tokens=list(tokens), gold=gold)

    train = [sequence(4), Sequence(tokens=[("a", "1"), ("b", "-0.5")] * K, gold=tags * 2)]
    model = build_model(train, draw(st.sampled_from(DIAGNOSE_TEMPLATES)), 2)
    if draw(st.booleans()):
        model.weights[:] = _ties(draw, model.weights.shape)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        model.weights[:] = np.random.default_rng(seed).uniform(-3, 3, model.index.n_features)
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    cut = _DENSE_CELLS // (K * K)
    n_list = draw(st.lists(st.sampled_from((1, 2, cut, cut + 1, K * K, 40)), min_size=1,
                           max_size=6))
    return model, [sequence(T) for T in lengths], n_list


def _former_delta_csv(model, probe, n_list):
    """The per-probe composition the batched diagnostic replaces: one lattice and one
    search per probe, then per n ``candidate_mixture`` and ``subtract_oracle``."""
    lat, cs = labeled_sample(model, probe)
    K, n_list = model.num_tags, sorted(set(n_list))
    marg = forward_backward(lat)
    exact = expected_items(cs, marg, K, cs.gold)
    nb = astar_nbest(lat, n_list[-1])
    prefix_logz = np.logaddexp.accumulate(nb.scores)
    reports = []
    for n in n_list:
        k = min(n, len(nb.paths))
        sub = topn_distribution(NBestList(nb.paths[:k], nb.scores[:k], None, n, k < n))
        approx = candidate_mixture(cs, sub.paths, sub.probs, K, cs.gold)
        diffs = subtract_oracle(exact, approx)["value"]
        tail = 1.0 - math.exp(float(prefix_logz[k - 1]) - marg.logZ)
        reports.append(DeltaReport(n, math.sqrt(math.fsum((diffs * diffs).tolist())),
                                   float(np.abs(diffs).max(initial=0.0)), max(tail, 0.0)))
    return delta_csv_lines(reports)


@settings(max_examples=60, deadline=None)
@given(diagnose_cases())
def test_batched_diagnostic_equals_per_probe_composition(case):
    model, probes, n_list = case
    batched = delta_diagnostics(model, probes, n_list)
    assert len(batched) == len(probes)
    for reports, probe in zip(batched, probes):
        assert delta_csv_lines(reports) == _former_delta_csv(model, probe, n_list)

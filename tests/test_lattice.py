import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from sapo import (
    ExtractionError,
    Lattice,
    NonFiniteError,
    Sequence,
    astar_nbest,
    backward_viterbi,
    beam_nbest,
    build_lattice,
    build_model,
    enumerate_all,
    extract_features,
    path_score,
    score_sequence,
    sequence_log_prob,
    viterbi,
)
from sapo.features import compile_corpus, weight_views
from sapo.lattice import (_STACK_CELLS, NBestList, _search, emission_scores, length_buckets,
                          searched)

from conftest import random_lattice, random_word_model, word_corpus


def brute_scores(l):
    """Independent path scoring: plain sums over itertools enumeration."""
    out = {}
    for path in itertools.product(range(l.K), repeat=l.T):
        s = sum(l.emit[t, path[t]] for t in range(l.T))
        s += sum(l.trans[path[t - 1], path[t]] for t in range(1, l.T))
        out[path] = s
    return out


def assert_tie_break_order(nb):
    for i in range(1, len(nb.paths)):
        s_prev, s_cur = nb.scores[i - 1], nb.scores[i]
        assert s_prev > s_cur or (s_prev == s_cur and nb.paths[i - 1] < nb.paths[i])


class TestBuildLattice:
    def test_zero_weight_model(self, rng):
        model, seqs = random_word_model(rng, randomize=False)
        lat = build_lattice(model, seqs[0])
        assert not lat.emit.any() and not lat.trans.any()

    def test_length_one(self, rng):
        model, seqs = random_word_model(rng, n_seqs=2, max_len=1)
        seq = next(s for s in seqs if len(s) == 1)
        lat = build_lattice(model, seq)
        path, score = viterbi(lat)
        assert path == [int(np.argmax(lat.emit[0]))]
        assert score == lat.emit[0].max()

    def test_full_enumeration_matches_score_sequence(self, rng):
        model, seqs = random_word_model(rng, n_seqs=1, max_len=5, tags=("X", "Y", "Z"))
        seq = max(seqs, key=len)
        lat = build_lattice(model, seq)
        for path in itertools.product(range(3), repeat=len(seq)):
            assert path_score(lat, path) == pytest.approx(
                score_sequence(model, seq, list(path)), abs=1e-9
            )

    def test_stack_rows_are_built_a_few_sequences_at_a_time(self, rng, monkeypatch):
        # Each emission_scores call of a stack's build holds at most _STACK_CELLS
        # (feature, tag) cells, or one sequence's, and the rows are the lattices'.
        model, seqs = random_word_model(rng, n_seqs=40, max_len=12)
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        rows = [build_lattice(model, seq).emit for seq in seqs]
        calls = []

        def spy(part, emit_w):
            calls.append([len(cs.rids) * emit_w.shape[1] for cs in part])
            return emission_scores(part, emit_w)

        monkeypatch.setattr("sapo.lattice.emission_scores", spy)
        monkeypatch.setattr("sapo.lattice._STACK_CELLS", 200)
        seen, done, split = [], 0, False
        for idx, stack in length_buckets(compiled, views):
            for b, i in enumerate(idx):
                assert stack.emit[b, : len(rows[i])].tobytes() == rows[i].tobytes()
                assert not stack.emit[b, len(rows[i]) :].any()
            assert sum(len(cells) for cells in calls[done:]) == len(idx)
            split |= len(calls) - done > 1
            seen, done = seen + idx, len(calls)
        assert sorted(seen) == list(range(len(seqs))) and split
        assert all(sum(cells) <= 200 or len(cells) == 1 for cells in calls)


class TestLengths:
    """A stack's ``lengths``: one per lattice, each in 1..T, longest first."""

    def test_a_stack_of_its_own_lengths(self, rng):
        lat = Lattice(rng.normal(size=(3, 4, 2)), rng.normal(size=(2, 2)), (4, 4, 1))
        assert lat.lengths == [4, 4, 1] and lat.runs() == [(0, 1, 3), (1, 4, 2)]
        assert Lattice(lat.emit, lat.trans).runs() == [(0, 4, 3)]

    @pytest.mark.parametrize("shape, lengths, message", [
        ((3, 4, 2), [4, 0, 0], "lattice 1 has length 0, outside 1..4"),
        ((3, 4, 2), [5, 4, 1], "lattice 0 has length 5, outside 1..4"),
        ((3, 4, 2), [4, 4], "2 lengths for a stack of 3"),
        ((3, 4, 2), [4, 3, 2, 1], "4 lengths for a stack of 3"),
        ((4, 2), [4], "1 lengths for a single lattice"),
        ((3, 4, 2), [4, 2, 3], r"lattice 2 \(length 3\) is longer than lattice 1 \(length 2\); "
                               "a stack holds its longest first"),
    ])
    def test_invalid_lengths(self, shape, lengths, message):
        with pytest.raises(ValueError, match=r"^lengths: %s$" % message):
            Lattice(np.zeros(shape), np.zeros((2, 2)), lengths)

    @pytest.mark.parametrize("emit, trans, message", [
        ((0, 3), (3, 3), r"emit: shape \(0, 3\), not"),  # T = 0
        ((3, 0), (0, 0), r"emit: shape \(3, 0\), not"),  # K = 0
        ((0, 4, 2), (2, 2), r"emit: shape \(0, 4, 2\), not"),  # an empty stack
        ((3,), (3, 3), r"emit: shape \(3,\), not \(T, K\) for a lattice or \(B, T, K\)"),
        ((4, 3), (2, 2), r"trans: shape \(2, 2\), not \(3, 3\)$"),
        ((2, 4, 3), (3, 2), r"trans: shape \(3, 2\), not \(3, 3\)$"),
    ], ids=["T=0", "K=0", "empty-stack", "1-D", "trans-2x2", "stack-trans-3x2"])
    def test_invalid_shapes(self, emit, trans, message):
        # Unchecked, each would fail only inside a pass: a ZeroDivisionError, an
        # IndexError or a broadcast error.
        with pytest.raises(ValueError, match="^" + message):
            Lattice(np.zeros(emit), np.zeros(trans))


class TestPathScore:
    @pytest.mark.parametrize("path, tag", [([0, 1, -1, 0], -1), ([0, 5, 1, 0], 5)],
                             ids=["negative", "too-large"])
    def test_rejects_a_tag_outside_the_tagset(self, rng, path, tag):
        lat = random_lattice(rng, T=4, K=3)
        with pytest.raises(ValueError, match=r"^tag id %d outside tagset of size 3$" % tag):
            path_score(lat, path)
        stack = Lattice(np.stack([lat.emit, lat.emit]), lat.trans, [4, 3])
        with pytest.raises(ValueError, match=r"^tag id %d outside tagset of size 3$" % tag):
            path_score(stack, [[0, 0, 0, 0], path[:3]])

    @pytest.mark.parametrize("lengths, path, message", [
        (None, [0, 1, 2], r"\[3\] for lattices of lengths \[4\]"),
        (None, [0, 1, 2, 0, 1], r"\[5\] for lattices of lengths \[4\]"),
        ([4, 2], [[0, 1, 2, 0], [0, 1, 2, 0]], r"\[4, 4\] for lattices of lengths \[4, 2\]"),
        ([4, 2], [[0, 1, 2, 0]], r"\[4\] for lattices of lengths \[4, 2\]"),
    ], ids=["short", "long", "stack-long", "stack-one-too-few"])
    def test_rejects_a_tagging_of_the_wrong_length(self, rng, lengths, path, message):
        lat = random_lattice(rng, T=4, K=3)
        if lengths:
            lat = Lattice(np.stack([lat.emit, lat.emit]), lat.trans, lengths)
        with pytest.raises(ValueError, match=r"^path: taggings of lengths %s$" % message):
            path_score(lat, path)

    @pytest.mark.parametrize("tag", [1.7, -0.5, math.nan, math.inf],
                             ids=["fraction", "negative-fraction", "nan", "inf"])
    def test_rejects_a_tag_that_is_not_a_whole_number(self, rng, tag):
        # Not truncated to a tag id: [0, 1.7, 0, 0] is no tagging, not [0, 1, 0, 0].
        message = r"^tag id %s is not a whole number$" % re.escape(repr(tag))
        lat = random_lattice(rng, T=4, K=3)
        with pytest.raises(ValueError, match=message):
            path_score(lat, [0, tag, 0, 0])
        stack = Lattice(np.stack([lat.emit, lat.emit]), lat.trans, [4, 3])
        with pytest.raises(ValueError, match=message):
            path_score(stack, [[0, 0, 0, 0], [0, tag, 0]])
        assert path_score(lat, [0, 1.0, 0, 0]) == path_score(lat, [0, 1, 0, 0])
        model, _ = random_word_model(rng)
        seq = Sequence(tokens=[("a",), ("b",), ("c",)])
        for score in (score_sequence, sequence_log_prob):
            with pytest.raises(ValueError, match=message):
                score(model, seq, [0, tag, 0])
        with pytest.raises(ExtractionError, match=message):
            extract_features(seq, [0, tag, 0], model.templates, model.index)


class TestViterbi:
    def test_all_zero_lattice_tie_break(self):
        lat = Lattice(emit=np.zeros((3, 3)), trans=np.zeros((3, 3)))
        path, score = viterbi(lat)
        assert path == [0, 0, 0] and score == 0.0

    def test_dominant_diagonal(self):
        emit = np.full((3, 3), -1.0)
        np.fill_diagonal(emit, 5.0)
        lat = Lattice(emit=emit, trans=np.zeros((3, 3)))
        path, _ = viterbi(lat)
        assert path == [0, 1, 2]

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(60):
            lat = random_lattice(rng)
            path, score = viterbi(lat)
            full = enumerate_all(lat)
            assert tuple(path) == full.paths[0]
            assert score == pytest.approx(full.scores[0], abs=1e-9)


class TestBackwardViterbi:
    def test_length_one_is_zero(self, rng):
        lat = random_lattice(rng, T=1, K=3)
        assert not backward_viterbi(lat).any()

    def test_all_zero_lattice(self):
        lat = Lattice(emit=np.zeros((4, 2)), trans=np.zeros((2, 2)))
        assert not backward_viterbi(lat).any()

    def test_start_frontier_reproduces_viterbi_score(self, rng):
        for _ in range(30):
            lat = random_lattice(rng)
            h = backward_viterbi(lat)
            best = (lat.emit[0] + h[0]).max()
            assert best == pytest.approx(viterbi(lat)[1], abs=1e-9)

    def test_consistency_recurrence(self, rng):
        lat = random_lattice(rng, T=6, K=4)
        h = backward_viterbi(lat)
        assert not h[-1].any()
        for t in range(lat.T - 1):
            for k in range(lat.K):
                expected = max(
                    lat.trans[k, j] + lat.emit[t + 1, j] + h[t + 1, j]
                    for j in range(lat.K)
                )
                assert h[t, k] == pytest.approx(expected, abs=1e-12)


class TestAstarNBest:
    def test_top1_equals_viterbi(self, rng):
        for _ in range(30):
            lat = random_lattice(rng)
            nb = astar_nbest(lat, 1)
            path, score = viterbi(lat)
            assert list(nb.paths[0]) == path
            assert nb.scores[0] == pytest.approx(score, abs=1e-9)

    def test_exhaustive_request(self, rng):
        lat = random_lattice(rng, T=3, K=3)
        nb = astar_nbest(lat, 27)
        assert len(nb) == 27 and nb.exhausted
        assert nb.paths == enumerate_all(lat).paths

    def test_n_beyond_path_count(self, rng):
        lat = random_lattice(rng, T=2, K=2)
        nb = astar_nbest(lat, 100)
        assert len(nb) == 4 and nb.exhausted

    def test_matches_enumeration_prefix(self, rng):
        for _ in range(60):
            lat = random_lattice(rng)
            full = enumerate_all(lat)
            for n in (1, 3, 5, 17):
                nb = astar_nbest(lat, n)
                k = min(n, len(full.paths))
                assert nb.paths == full.paths[:k]
                assert np.allclose(nb.scores, full.scores[:k], atol=1e-9)
                assert nb.exhausted == (len(full.paths) <= n)

    def test_monotone_prefix_extension(self, rng):
        lat = random_lattice(rng, T=5, K=3)
        for n in range(1, 12):
            assert astar_nbest(lat, n).paths == astar_nbest(lat, n + 1).paths[:n]

    def test_ties_in_lex_order(self):
        lat = Lattice(emit=np.zeros((3, 2)), trans=np.zeros((2, 2)))
        nb = astar_nbest(lat, 8)
        assert nb.paths == sorted(itertools.product(range(2), repeat=3))

    def test_invalid_n(self, rng):
        with pytest.raises(ValueError):
            astar_nbest(random_lattice(rng), 0)

    def test_stack_equals_single_lattices(self, rng):
        # (T, K, n): n > 1, T = 1, K = 1, n = K^T, n > K^T, and n = 1.
        for T, K, n in ((5, 3, 7), (1, 4, 3), (6, 1, 4), (3, 2, 8), (2, 3, 40), (4, 4, 1)):
            lats = [random_lattice(rng, T=T, K=K) for _ in range(3)]
            trans = lats[0].trans
            emits = [lat.emit for lat in lats] + [lats[0].emit]  # a repeated lattice, too
            found = astar_nbest(Lattice(np.stack(emits), trans), n)
            assert len(found) == len(emits)
            for nb, emit in zip(found, emits):
                own = astar_nbest(Lattice(emit, trans), n)
                assert (nb.paths, nb.scores, nb.exhausted) == (own.paths, own.scores, own.exhausted)
                assert nb.n_requested == n and nb.probs is None

    def test_stacked_cut_equals_single_lattices(self, rng):
        # n*K^2 > 1,024: the g + h cut leaves each lattice its own survivor
        # count, and the search still takes the stack in one pass.
        lat = random_lattice(rng, T=4, K=15)
        ties = np.round(lat.emit)  # integer-valued: exact ties in the cut
        stack = Lattice(np.stack([lat.emit, lat.emit[::-1], ties, np.zeros_like(ties)]), lat.trans)
        for n in (5, 16, 40):
            paths, scores, sizes = _search(stack, n)
            lo = 0
            for emit, m in zip(stack.emit, sizes):
                own = _search(Lattice(emit, lat.trans), n)
                assert (paths[lo : lo + m], scores[lo : lo + m], [m]) == own
                lo += m
            found = astar_nbest(stack, n)
            for nb, emit in zip(found, stack.emit):
                own = astar_nbest(Lattice(emit, lat.trans), n)
                assert (nb.paths, nb.scores, nb.exhausted) == (own.paths, own.scores, own.exhausted)
        with pytest.raises(ValueError, match="stack"):
            beam_nbest(stack, 1, 5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_cut_with_non_finite_scores_equals_single_lattices(self, rng):
        # An infinite emission makes a lattice's margin infinite, so its cut keeps
        # every extension: the lattices' survivor counts differ.  Pads are
        # counted, not told by score, so each list is the lattice's own, NaN and
        # infinite scores included.
        lat = random_lattice(rng, T=4, K=15)
        inf, nan = lat.emit.copy(), lat.emit.copy()
        inf[2, :7] = np.inf
        inf[3, 4] = -np.inf
        nan[1, 3] = np.nan
        # A NaN emission makes the lattice's margin NaN, so its cut keeps no
        # survivor; in the last stack no lattice keeps one.
        for emits in ([lat.emit, inf, nan, lat.emit[::-1]], [nan, nan[::-1]]):
            stack = Lattice(np.stack(emits), lat.trans)
            for n in (5, 30):
                for nb, emit in zip(astar_nbest(stack, n), emits):
                    own = astar_nbest(Lattice(emit, lat.trans), n)
                    assert nb.paths == own.paths and nb.exhausted == own.exhausted
                    assert np.array_equal(nb.scores, own.scores, equal_nan=True)

    def test_stack_of_a_large_n_stays_small(self, rng):
        # K=2, T=10: n=256 makes no cut (n*K^2 = 1,024) and n=257 makes it.
        # Buckets are sized by K*n*max(K, T) either way: the cut keeps at most
        # n survivors per tag, so its step too holds at most B*n*K^2 cells and
        # its path history at most B*T*n*K keys.
        seqs = [Sequence(tokens=[(w,) for w in rng.choice(list("abcdef"), 10)],
                         gold=list(rng.choice(["X", "Y"], 10))) for _ in range(1024)]
        model = build_model(seqs, "U00:%x[0,0]\nU01:%x[-1,0]\nB\n", 1)
        model.weights[:] = rng.normal(size=model.weights.shape)
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        for n in (256, 257):
            size = _STACK_CELLS // (2 * n * 10)
            assert [len(idx) for idx, _ in length_buckets(compiled, views, n)] == (
                [size] * (1024 // size) + [1024 % size] * (1024 % size > 0))
        buckets = length_buckets(compiled, views, 257)
        tracemalloc.start()
        try:
            idx, stack = next(buckets)
            found = astar_nbest(stack, 257)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(idx) * 2 * 257 * 10 <= _STACK_CELLS
        # Beyond the lists it returns, the search holds a few float tables of
        # _STACK_CELLS cells (2 MB) at a time.
        assert peak - kept <= 16 * 8 * _STACK_CELLS
        for i in (0, len(idx) - 1):
            own = astar_nbest(Lattice(stack.emit[i], stack.trans), 257)
            assert (found[i].paths, found[i].scores) == (own.paths, own.scores)

    def test_ragged_stacks_stay_small(self, rng):
        # Lengths 1-80 in one corpus: each stack holds the next sequences, longest
        # first, as many as B*K*n*max(K, T) <= _STACK_CELLS allows, T its first length.
        lengths = rng.integers(1, 81, 300)
        seqs = [Sequence(tokens=[(w,) for w in rng.choice(list("abcdef"), T)],
                         gold=list(rng.choice(["X", "Y"], T))) for T in lengths]
        model = build_model(seqs, "U00:%x[0,0]\nU01:%x[-1,0]\nB\n", 1)
        model.weights[:] = rng.normal(size=model.weights.shape)
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        order = sorted(range(len(seqs)), key=lambda i: -lengths[i])
        for n in (1, 5, 257):
            stacks = list(length_buckets(compiled, views, n))
            assert [i for idx, _ in stacks for i in idx] == order
            for idx, stack in stacks:
                assert stack.lengths == [lengths[i] for i in idx] and stack.T == lengths[idx[0]]
                assert len(idx) * 2 * n * max(2, stack.T) <= _STACK_CELLS
                if idx[-1] != order[-1]:  # a full stack: one more would break the rule
                    assert (len(idx) + 1) * 2 * n * max(2, stack.T) > _STACK_CELLS
            # The search of the stack of most lengths: n = 1 runs the n = 1 step,
            # n = 5 the dense step and n = 257 the cut.
            _, stack = max(stacks, key=lambda s: len(set(s[1].lengths)))
            assert len(set(stack.lengths)) >= 8
            if n < 257:  # one stack, lengths 80 down to 1
                assert len(stacks) == 1 and stack.lengths[0] == 80 and stack.lengths[-1] == 1
            tracemalloc.start()
            try:
                found = astar_nbest(stack, n)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - kept <= 16 * 8 * _STACK_CELLS
            for b in (0, len(found) // 2, len(found) - 1):
                own = astar_nbest(Lattice(stack.emit[b, : stack.lengths[b]], stack.trans), n)
                assert (found[b].paths, found[b].scores) == (own.paths, own.scores)

    def test_near_ties_stay_small(self):
        # Many paths share the top score 3.5 (every transition 0.7), and
        # rounding spreads their g + h bounds apart: a near-tie regression.
        trans = np.random.default_rng(0).choice([0.1, 0.2, 0.3, 0.6, 0.7], (45, 45))
        lat = Lattice(emit=np.zeros((6, 45)), trans=trans)
        tracemalloc.start()
        try:
            nb = astar_nbest(lat, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

        def lex_tied(prefix):
            if len(prefix) == 6:
                yield tuple(prefix)
                return
            nxt = range(45) if not prefix else np.flatnonzero(trans[prefix[-1]] == 0.7)
            for j in nxt:
                yield from lex_tied(prefix + [int(j)])

        assert nb.scores == [3.5] * 5
        assert nb.paths == list(itertools.islice(lex_tied([]), 5))


class TestBeamNBest:
    def test_wide_beam_equals_astar(self, rng):
        for _ in range(20):
            lat = random_lattice(rng, T=4)
            a = astar_nbest(lat, 6)
            b = beam_nbest(lat, 6, beam=lat.K**lat.T)
            assert b.paths == a.paths
            assert b.scores == a.scores

    def test_greedy_beam_bounded_by_viterbi(self, rng):
        for _ in range(20):
            lat = random_lattice(rng)
            b = beam_nbest(lat, 1, beam=1)
            assert len(b) == 1
            # kept hypothesis is a real path with its exact score
            assert b.scores[0] == pytest.approx(path_score(lat, b.paths[0]), abs=1e-9)
            assert b.scores[0] <= viterbi(lat)[1] + 1e-12

    def test_exhausted_counts_returned_paths(self):
        lat = Lattice(emit=np.zeros((3, 2)), trans=np.zeros((2, 2)))
        nb = beam_nbest(lat, 10, beam=2)
        assert len(nb) == 2 and not nb.exhausted
        assert beam_nbest(lat, 10, beam=8).exhausted

    def test_scores_dominated_by_astar(self, rng):
        for _ in range(20):
            lat = random_lattice(rng, T=6, K=4)
            a = astar_nbest(lat, 5)
            b = beam_nbest(lat, 5, beam=50)
            assert_tie_break_order(b)
            for rank in range(min(len(a), len(b))):
                assert b.scores[rank] <= a.scores[rank] + 1e-12


class TestEnumerateAll:
    def test_single_position(self, rng):
        lat = random_lattice(rng, T=1, K=3)
        full = enumerate_all(lat)
        assert len(full) == 3 and full.exhausted

    def test_hand_computed_ordering(self):
        lat = Lattice(
            emit=np.array([[1.0, 0.0], [0.0, 1.0]]),
            trans=np.array([[0.0, 2.0], [0.0, 0.0]]),
        )
        full = enumerate_all(lat)
        assert full.paths == [(0, 1), (0, 0), (1, 1), (1, 0)]
        assert full.scores == [4.0, 1.0, 1.0, 0.0]

    def test_scores_and_completeness_against_oracle(self, rng):
        lat = random_lattice(rng, T=6, K=3)
        full = enumerate_all(lat)
        oracle = brute_scores(lat)
        assert len(full) == 3**6
        assert set(full.paths) == set(oracle)
        for path, score in zip(full.paths, full.scores):
            assert score == pytest.approx(oracle[path], abs=1e-9)
        assert_tie_break_order(full)

    def test_size_guard(self):
        lat = Lattice(emit=np.zeros((11, 4)), trans=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="enumeration guard"):
            enumerate_all(lat)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 3, 3)])
    def test_rejects_a_stack(self, shape):
        with pytest.raises(ValueError, match="^enumeration takes one lattice, not a stack$"):
            enumerate_all(Lattice(np.zeros(shape), np.zeros((3, 3))))


def _scripted(*buckets):
    """A search whose n-best lists carry the given scores, a list per lattice for
    each stack in the order ``length_buckets`` yields them."""
    calls = iter(buckets)

    def search(lat, n):
        return [NBestList([(0,) * lat.T] * len(s), s, None, n, False) for s in next(calls)]

    return search


class TestCheckFinite:
    """``searched``'s check of each bucket's emission rows and searched scores."""

    @pytest.fixture
    def corpus(self):
        # Sequences 0 (length 2), 1 (length 3) and 2 (length 2): one stack, longest
        # first, holds 1, 0 and 2.
        seqs = word_corpus([("a b", "X Y"), ("a b c", "X Y X"), ("b c", "Y X")])
        model = build_model(seqs, "U00:%x[0,0]\nB\n", 1)
        model.weights[:] = np.random.default_rng(3).normal(size=model.weights.shape)
        return model, seqs

    def test_names_the_first_failing_sequence(self, corpus):
        model, seqs = corpus
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        for nb, seq in zip(searched(compiled, views, astar_nbest, 2), seqs):
            alone = astar_nbest(build_lattice(model, seq), 2)
            assert (nb.paths, nb.scores) == (alone.paths, alone.scores)
        emit_w = views[0].copy()
        emit_w[compiled[2].rids[1]] = np.inf  # the word c: sequences 1 and 2
        with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence 1$"):
            searched(compiled, (emit_w, views[1]), astar_nbest, 2)
        for buckets, named in (
                (([[-math.inf, 1.0], [1.0, 2.0], [1.0, math.nan]],), 1),
                (([[1.0, 2.0], [1.0, 2.0], [1.0]],), 2),  # a list cut short
                (([[1.0], [1.0, 2.0], [1.0, 2.0]],), 1)):
            with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence %d$" % named):
                searched(compiled, views, _scripted(*buckets), 2)

    def test_a_later_stack_can_hold_the_first_failing_sequence(self, corpus, monkeypatch):
        # A budget of 16 cells splits the corpus into stacks [1] and [0, 2] at n = 2
        # (K*n*max(K, T) is 12 for length 3 and 8 for length 2): each stack is
        # checked, and the lowest-numbered failure is named wherever it lies.
        model, seqs = corpus
        monkeypatch.setattr("sapo.lattice._STACK_CELLS", 16)
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        assert [idx for idx, _ in length_buckets(compiled, views, 2)] == [[1], [0, 2]]
        for nb, seq in zip(searched(compiled, views, astar_nbest, 2), seqs):
            alone = astar_nbest(build_lattice(model, seq), 2)
            assert (nb.paths, nb.scores) == (alone.paths, alone.scores)
        emit_w = views[0].copy()
        emit_w[compiled[0].rids[0]] = np.inf  # the word a: sequences 0 and 1
        with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence 0$"):
            searched(compiled, (emit_w, views[1]), astar_nbest, 2)
        for stacks, named in (
                (([[-math.inf, 1.0]], [[1.0], [1.0, 2.0]]), 0),  # a list cut short
                (([[-math.inf, 1.0]], [[1.0, 2.0], [1.0, math.nan]]), 1),
                (([[1.0, 2.0]], [[1.0, 2.0], [1.0, math.nan]]), 2),
                (([[1.0, 2.0]], [[math.inf, 2.0], [1.0, math.nan]]), 0)):
            with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence %d$" % named):
                searched(compiled, views, _scripted(*stacks), 2)

    def test_a_short_list_is_fine_when_every_tagging_is_in_it(self, corpus):
        model, _ = corpus
        compiled = compile_corpus(model, word_corpus([("a", "X")]))  # K^T = 2 taggings
        views = weight_views(model.weights, model.index)
        assert [len(nb) for nb in searched(compiled, views, astar_nbest, 9)] == [2]
        with pytest.raises(NonFiniteError, match=r"^non-finite scores of sequence 0$"):
            searched(compiled, views, _scripted([[1.0]]), 9)

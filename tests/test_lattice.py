import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sapo import (
    Lattice,
    Sequence,
    astar_nbest,
    backward_viterbi,
    beam_nbest,
    build_lattice,
    build_model,
    enumerate_all,
    path_score,
    score_sequence,
    viterbi,
)
from sapo.features import compile_corpus, weight_views
from sapo.lattice import _STACK_CELLS, _search, length_buckets

from conftest import random_lattice, random_word_model


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

    def test_stack_splits_where_the_cut_applies(self, rng):
        # n*K^2 > 1,024: the lattices keep ragged survivor counts, so the
        # search itself refuses a stack, and astar_nbest searches each alone.
        lat = random_lattice(rng, T=4, K=15)
        stack = Lattice(np.stack([lat.emit, lat.emit[::-1]]), lat.trans)
        with pytest.raises(ValueError, match="stack"):
            _search(stack, 5)
        own = [astar_nbest(Lattice(emit, lat.trans), 5) for emit in stack.emit]
        assert [(nb.paths, nb.scores) for nb in astar_nbest(stack, 5)] == [
            (nb.paths, nb.scores) for nb in own
        ]
        with pytest.raises(ValueError, match="stack"):
            beam_nbest(stack, 1, 5)

    def test_stack_of_a_large_n_stays_small(self, rng):
        # K=2, n=256, T=10 makes no cut (n*K^2 = 1,024), so a bucket is searched
        # as one stack; sized by K*max(K, T) alone it would hold all 1,024
        # sequences, and its n-best step up to 1,024*n*K^2 cells.
        seqs = [Sequence(tokens=[(w,) for w in rng.choice(list("abcdef"), 10)],
                         gold=list(rng.choice(["X", "Y"], 10))) for _ in range(1024)]
        model = build_model(seqs, "U00:%x[0,0]\nU01:%x[-1,0]\nB\n", 1)
        model.weights[:] = rng.normal(size=model.weights.shape)
        compiled = compile_corpus(model, seqs)
        views = weight_views(model.weights, model.index)
        # At n = 257 the cut applies and each lattice is searched alone, so
        # the bucket is sized as for n = 1.
        assert [len(idx) for idx, _ in length_buckets(compiled, views, 257)] == [1024]
        buckets = length_buckets(compiled, views, 256)
        tracemalloc.start()
        try:
            idx, stack = next(buckets)
            found = astar_nbest(stack, 256)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(idx) * 256 * 2 * 2 <= _STACK_CELLS
        # Beyond the lists it returns, the search holds a few float tables of
        # _STACK_CELLS cells (2 MB) at a time.
        assert peak - kept <= 16 * 8 * _STACK_CELLS
        for i in (0, len(idx) - 1):
            own = astar_nbest(Lattice(stack.emit[i], stack.trans), 256)
            assert (found[i].paths, found[i].scores) == (own.paths, own.scores)

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

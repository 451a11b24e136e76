import itertools
import math

import numpy as np
import pytest

from sapo import (
    ConfigError,
    Lattice,
    NBestList,
    Sequence,
    astar_nbest,
    build_lattice,
    build_model,
    crf_stochastic_gradient,
    delta_diagnostic,
    enumerate_all,
    extract_features,
    forward_backward,
    objective_value,
    path_score,
    sapo_update_term,
    sequence_log_prob,
    topn_distribution,
)
from sapo import inference
from sapo.inference import delta_csv_lines, forward_logz

from conftest import random_lattice, random_word_model


def oracle_logsumexp(scores):
    m = max(scores)
    return m + math.log(math.fsum(math.exp(s - m) for s in scores))


def enumeration_logz(l):
    return oracle_logsumexp(enumerate_all(l).scores)


class TestForwardBackward:
    def test_uniform_two_by_two(self):
        lat = Lattice(emit=np.zeros((2, 2)), trans=np.zeros((2, 2)))
        marg = forward_backward(lat)
        assert marg.logZ == pytest.approx(math.log(4), abs=1e-12)
        assert np.allclose(marg.node, 0.5)
        assert np.allclose(marg.edge, 0.25)

    def test_single_position(self, rng):
        lat = random_lattice(rng, T=1, K=4)
        marg = forward_backward(lat)
        e = np.exp(lat.emit[0] - lat.emit[0].max())
        assert np.allclose(marg.node[0], e / e.sum(), atol=1e-12)
        assert marg.logZ == pytest.approx(oracle_logsumexp(list(lat.emit[0])), abs=1e-9)

    def test_logz_matches_enumeration(self, rng):
        for _ in range(30):
            lat = random_lattice(rng, T=int(rng.integers(1, 7)), K=3)
            assert forward_logz(lat) == pytest.approx(enumeration_logz(lat), abs=1e-9)

    def test_marginal_invariants(self, rng):
        for _ in range(10):
            lat = random_lattice(rng, T=6, K=4)
            marg = forward_backward(lat)
            assert np.allclose(marg.node.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(marg.edge.sum(axis=(1, 2)), 1.0, atol=1e-9)
            for t in range(lat.T - 1):
                assert np.allclose(marg.edge[t].sum(axis=1), marg.node[t], atol=1e-9)
                assert np.allclose(marg.edge[t].sum(axis=0), marg.node[t + 1], atol=1e-9)


    def test_the_diagnostic_splits_a_stack_by_the_padded_rule(self, rng, monkeypatch):
        # Each part holds as many lattices as count x its first one's T*K^2 edge
        # cells <= _STACK_CELLS allows (40 here, K = 2), and every lattice's list
        # and marginals are those it gets alone.
        lengths = [6, 5, 3, 2, 2, 1]
        emit = rng.normal(size=(len(lengths), 6, 2))
        emit[np.arange(6) >= np.array(lengths)[:, None]] = 0.0
        stack = Lattice(emit, rng.normal(size=(2, 2)), lengths)
        parts = []

        def spy(part):
            parts.append(part.lengths)
            return forward_backward(part)

        monkeypatch.setattr("sapo.lattice._STACK_CELLS", 40)
        monkeypatch.setattr("sapo.inference.forward_backward", spy)
        probes = inference._nbest_and_marginals(stack, 3)
        assert parts == [[6], [5, 3], [2, 2, 1]]
        for probe, row, T in zip(probes, emit, lengths):
            alone = Lattice(row[:T], stack.trans)
            nb, own = astar_nbest(alone, 3), forward_backward(alone)
            assert (probe.paths, probe.scores) == (nb.paths, nb.scores)
            assert probe.marg.logZ == own.logZ
            assert probe.marg.node.tobytes() == own.node.tobytes()
            assert probe.marg.edge.tobytes() == own.edge.tobytes()


class TestSequenceLogProb:
    def test_uniform_model(self):
        seqs = [Sequence(tokens=[("a",), ("b",)], gold=["X", "Y"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", 1)
        for y in itertools.product(range(2), repeat=2):
            assert sequence_log_prob(model, seqs[0], list(y)) == pytest.approx(
                math.log(0.25), abs=1e-12
            )

    def test_rejects_a_tag_outside_the_tagset(self):
        seqs = [Sequence(tokens=[("a",), ("b",)], gold=["X", "Y"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", 1)
        with pytest.raises(ValueError, match=r"^tag id -1 outside tagset of size 2$"):
            sequence_log_prob(model, seqs[0], [0, -1])

    def test_viterbi_path_is_argmax(self, rng):
        model, seqs = random_word_model(rng)
        seq = max(seqs, key=len)
        lat = build_lattice(model, seq)
        full = enumerate_all(lat)
        best = sequence_log_prob(model, seq, list(full.paths[0]))
        for path in full.paths[1:]:
            assert sequence_log_prob(model, seq, list(path)) <= best + 1e-12

    def test_probabilities_sum_to_one(self, rng):
        model, seqs = random_word_model(rng)
        seq = max(seqs, key=len)
        lat = build_lattice(model, seq)
        total = math.fsum(
            math.exp(sequence_log_prob(model, seq, list(p)))
            for p in enumerate_all(lat).paths
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestTopnDistribution:
    def test_single_candidate(self, rng):
        nb = topn_distribution(astar_nbest(random_lattice(rng), 1))
        assert nb.probs == [1.0]

    def test_equal_scores_split_evenly(self):
        lat = Lattice(emit=np.zeros((2, 2)), trans=np.zeros((2, 2)))
        nb = topn_distribution(astar_nbest(lat, 2))
        assert nb.probs == [0.5, 0.5]

    def test_exhaustive_matches_exact_distribution(self, rng):
        model, seqs = random_word_model(rng)
        seq = max(seqs, key=len)
        lat = build_lattice(model, seq)
        nb = topn_distribution(enumerate_all(lat))
        for path, _score, prob in nb.entries:
            assert prob == pytest.approx(
                math.exp(sequence_log_prob(model, seq, list(path))), abs=1e-9
            )
        assert math.fsum(nb.probs) == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot normalize an empty candidate list$"):
            topn_distribution(NBestList([], [], None, 1, False))

    def test_order_unchanged(self, rng):
        raw = astar_nbest(random_lattice(rng, T=5, K=3), 7)
        nb = topn_distribution(raw)
        assert nb.paths == raw.paths and nb.scores == raw.scores


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fd_gradient(model, seq, gold_ids, fid, l2, S, step=1e-5):
    """Central finite differences of the enumeration-based per-sample loss."""

    def loss():
        lat = build_lattice(model, seq)
        logz = enumeration_logz(lat)
        reg = (l2 / S) * 0.5 * float(np.dot(model.weights, model.weights))
        return logz - path_score(lat, gold_ids) + reg

    orig = model.weights[fid]
    model.weights[fid] = orig + step
    up = loss()
    model.weights[fid] = orig - step
    down = loss()
    model.weights[fid] = orig
    return (up - down) / (2 * step)


class TestCrfStochasticGradient:
    def test_zero_weights_uniform_expectation(self, rng):
        # oracle: mean feature vector over all taggings, by brute force
        model, seqs = random_word_model(rng, randomize=False, tags=("X", "Y"))
        seq = max(seqs, key=len)
        gold = model.tagset.ids(seq.gold)
        K, T = 2, len(seq)
        expected = {}
        for path in itertools.product(range(K), repeat=T):
            for fid, v in extract_features(seq, list(path), model.templates, model.index):
                expected[fid] = expected.get(fid, 0.0) + v / K**T
        for fid, v in extract_features(seq, gold, model.templates, model.index):
            expected[fid] = expected.get(fid, 0.0) - v
        term = crf_stochastic_gradient(model, seq, l2=1.0, dataset_size=10)
        got = dict(term.items)
        for fid in set(expected) | set(got):
            assert got.get(fid, 0.0) == pytest.approx(expected.get(fid, 0.0), abs=1e-9)
        assert term.decay == 0.1

    def test_single_tag_gold_is_noop(self):
        seqs = [Sequence(tokens=[("a",), ("b",)], gold=["T", "T"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", 1)
        term = crf_stochastic_gradient(model, seqs[0], l2=0.0, dataset_size=1)
        assert term.items == []

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            model, seqs = random_word_model(rng, n_seqs=2, max_len=4, tags=("X", "Y"))
            seq = max(seqs, key=len)
            gold = model.tagset.ids(seq.gold)
            l2, S = 0.7, 5
            term = crf_stochastic_gradient(model, seq, l2=l2, dataset_size=S)
            decay = term.decay
            touched = dict(term.items)
            probe = list(touched)
            untouched = [
                fid
                for fid in rng.integers(0, model.index.n_features, size=40)
                if int(fid) not in touched
            ][:20]
            for fid in probe + [int(f) for f in untouched]:
                analytic = touched.get(fid, 0.0) + decay * model.weights[fid]
                fd = _fd_gradient(model, seq, gold, fid, l2, S)
                assert _rel_err(analytic, fd) < 1e-4

    def test_missing_gold_rejected(self, rng):
        model, _ = random_word_model(rng)
        bare = Sequence(tokens=[("a",)], gold=None)
        with pytest.raises(ValueError, match="gold"):
            crf_stochastic_gradient(model, bare, 1.0, 1)


class TestSapoUpdateTerm:
    def test_exhaustive_equals_crf_gradient(self, rng):
        for _ in range(8):
            model, seqs = random_word_model(rng, tags=("X", "Y"))
            seq = max(seqs, key=len)
            crf = dict(crf_stochastic_gradient(model, seq, 1.0, 7).items)
            sapo = dict(
                sapo_update_term(model, seq, n=2 ** len(seq) + 5, l2=1.0, dataset_size=7).items
            )
            for fid in set(crf) | set(sapo):
                assert sapo.get(fid, 0.0) == pytest.approx(crf.get(fid, 0.0), abs=1e-9)

    def test_correct_top1_is_noop(self):
        # distinct words per position so boosting the gold features makes
        # the gold path strictly dominant (no ties to lose to)
        seqs = [Sequence(tokens=[("a",), ("b",), ("c",)], gold=["X", "Y", "X"])]
        model = build_model(seqs, "U00:%x[0,0]\nU01:%x[-1,0]\nB\n", 1)
        seq = seqs[0]
        gold = model.tagset.ids(seq.gold)
        for fid, v in extract_features(seq, gold, model.templates, model.index):
            model.weights[fid] += 5.0
        term = sapo_update_term(model, seq, n=1, l2=0.0, dataset_size=1)
        assert term.items == []

    def test_compositional_recomputation(self, rng):
        model, seqs = random_word_model(rng)
        seq = max(seqs, key=len)
        nb = topn_distribution(astar_nbest(build_lattice(model, seq), 3))
        expected = {}
        for path, _s, prob in nb.entries:
            for fid, v in extract_features(seq, list(path), model.templates, model.index):
                expected[fid] = expected.get(fid, 0.0) + prob * v
        for fid, v in extract_features(
            seq, model.tagset.ids(seq.gold), model.templates, model.index
        ):
            expected[fid] = expected.get(fid, 0.0) - v
        got = dict(sapo_update_term(model, seq, n=3, l2=2.0, dataset_size=4).items)
        for fid in set(expected) | set(got):
            assert got.get(fid, 0.0) == pytest.approx(expected.get(fid, 0.0), abs=1e-12)

    def test_beam_search_mode(self, rng):
        model, seqs = random_word_model(rng)
        seq = max(seqs, key=len)
        a = sapo_update_term(model, seq, 4, 1.0, 3, search="astar")
        b = sapo_update_term(model, seq, 4, 1.0, 3, search="beam", beam=200)
        assert dict(a.items) == pytest.approx(dict(b.items))

    def test_unknown_search_mode_rejected(self, rng):
        model, seqs = random_word_model(rng)
        with pytest.raises(ConfigError, match=r"^search must be one of \('astar', 'beam'\)$"):
            sapo_update_term(model, seqs[0], 4, 1.0, 3, search="bogus")


@pytest.mark.parametrize("term", [
    crf_stochastic_gradient,
    lambda model, z, l2, size: sapo_update_term(model, z, 4, l2, size),
], ids=["crf", "sapo"])
@pytest.mark.parametrize("l2, size, message", [
    (1.0, 0, r"dataset_size must be an integer >= 1, got 0"),
    (1.0, -2, r"dataset_size must be an integer >= 1, got -2"),
    (1.0, 2.5, r"dataset_size must be an integer >= 1, got 2\.5"),
    (1.0, True, r"dataset_size must be an integer >= 1, got True"),
    (-1.0, 3, r"l2 strength must be finite and >= 0, got -1\.0"),
    (math.nan, 3, r"l2 strength must be finite and >= 0, got nan"),
])
def test_per_sample_terms_check_their_config_as_the_trainers_do(rng, term, l2, size, message):
    model, seqs = random_word_model(rng)
    with pytest.raises(ConfigError, match="^%s$" % message):
        term(model, seqs[0], l2, size)


class TestObjectiveValue:
    def test_zero_weights_uniform(self, rng):
        model, seqs = random_word_model(rng, randomize=False, tags=("X", "Y", "Z"))
        f = objective_value(model, seqs, l2=1.0)
        expected = sum(len(s) * math.log(3) for s in seqs)
        assert f == pytest.approx(expected, abs=1e-9)

    def test_single_tag_dataset(self):
        seqs = [Sequence(tokens=[("a",), ("b",)], gold=["T", "T"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", 1)
        model.weights[:] = 0.25
        reg = 0.5 * float(np.dot(model.weights, model.weights))
        assert objective_value(model, seqs, l2=2.0) == pytest.approx(2.0 * reg, abs=1e-12)

    def test_compositional_recomputation(self, rng):
        model, seqs = random_word_model(rng)
        l2 = 0.6
        expected = l2 * 0.5 * float(np.dot(model.weights, model.weights))
        expected -= sum(
            sequence_log_prob(model, s, model.tagset.ids(s.gold)) for s in seqs
        )
        assert objective_value(model, seqs, l2) == pytest.approx(expected, abs=1e-9)


class TestDeltaDiagnostic:
    def test_exhaustive_delta_vanishes(self, rng):
        model, seqs = random_word_model(rng, tags=("X", "Y"))
        seq = max(seqs, key=len)
        (report,) = delta_diagnostic(model, seq, [2 ** len(seq)], 1.0, 5)
        assert report.l2_delta <= 1e-9
        assert report.tail_mass <= 1e-12

    def test_tail_mass_strictly_drops_with_full_set(self, rng):
        model, seqs = random_word_model(rng, tags=("X", "Y"))
        seq = max(seqs, key=len)
        r1, rfull = delta_diagnostic(model, seq, [1, 2 ** len(seq)], 1.0, 5)
        assert rfull.tail_mass < r1.tail_mass or r1.tail_mass == 0.0

    def test_tail_mass_non_increasing(self, rng):
        for _ in range(10):
            model, seqs = random_word_model(rng)
            seq = max(seqs, key=len)
            reports = delta_diagnostic(model, seq, [1, 2, 5, 10, 50], 1.0, 5)
            tails = [r.tail_mass for r in reports]
            assert all(a >= b for a, b in zip(tails, tails[1:]))
            assert all(0.0 <= t <= 1.0 for t in tails)

    def test_n_below_one_rejected(self, rng):
        model, seqs = random_word_model(rng)
        with pytest.raises(ValueError, match=r"^n values must be >= 1$"):
            delta_diagnostic(model, seqs[0], [0])

    def test_csv_shape(self, rng):
        model, seqs = random_word_model(rng)
        reports = delta_diagnostic(model, seqs[0], [1, 2], 1.0, 5)
        lines = delta_csv_lines(reports)
        assert lines[0] == "n,l2_delta,linf_delta,tail_mass"
        assert len(lines) == 3


class TestNumericRange:
    def test_no_overflow_at_huge_scores(self, rng):
        # scores up to |700| must flow through every probability path
        # without intermediate overflow
        from sapo import Lattice, astar_nbest

        lat = Lattice(
            emit=rng.uniform(-700, 700, size=(5, 3)),
            trans=rng.uniform(-700, 700, size=(3, 3)),
        )
        assert math.isfinite(forward_logz(lat))
        marg = forward_backward(lat)
        assert np.isfinite(marg.node).all() and np.isfinite(marg.edge).all()
        nb = topn_distribution(astar_nbest(lat, 10))
        assert all(math.isfinite(p) for p in nb.probs)
        assert math.fsum(nb.probs) == pytest.approx(1.0, abs=1e-12)

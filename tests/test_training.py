import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sapo import (
    ConfigError,
    NonFiniteError,
    Sequence,
    TrainConfig,
    WeightState,
    build_lattice,
    build_model,
    chunk_f1,
    extract_features,
    generate_synthetic_hmm,
    load_model,
    run_epoch,
    save_model,
    score_sequence,
    token_accuracy,
    train,
    train_crf_sgd,
    train_mira,
    train_mira_nbest,
    train_perceptron,
    train_sapo,
    viterbi,
)
from sapo import training
from sapo.features import compile_corpus
from sapo.lattice import viterbi_tags

from conftest import word_corpus

TEMPLATES = "U00:%x[0,0]\nU01:%x[-1,0]\nB\n"
UNIGRAM_ONLY = "U00:%x[0,0]\n"


def small_corpus(seed=11, count=40, K=3, V=9, sep=0.5):
    return generate_synthetic_hmm(K=K, V=V, T_mean=4, count=count, seed=seed, separability=sep)


def snapshots():
    snaps = []
    return snaps, lambda epoch, w: snaps.append(w.copy())


def decode_accuracy(model, corpus):
    preds = []
    for seq in corpus.sequences:
        path, _ = viterbi(build_lattice(model, seq))
        preds.append([model.tagset.tag(t) for t in path])
    return token_accuracy(corpus, preds).value


class TestTrainConfig:
    def test_valid_defaults(self):
        TrainConfig(algorithm="sapo").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "nope"},
            {"algorithm": "sapo", "epochs": 0},
            {"algorithm": "sapo", "n": 0},
            {"algorithm": "sapo", "learning_rate": 0.0},
            {"algorithm": "sapo", "l2": -1.0},
            {"algorithm": "sapo", "beam_width": 0},
            {"algorithm": "sapo", "search": "dfs"},
            {"algorithm": "sapo", "lr_decay": 0.0},
            {"algorithm": "mira", "mira_clip": 0.0},
            {"algorithm": "sapo", "eval_every": 0},
            {"algorithm": "sapo", "metric": "bleu"},
            {"algorithm": "sapo", "epochs": 2.5},
            {"algorithm": "sapo", "beam_width": 2.5},
            {"algorithm": "sapo", "seed": 1.5},
            {"algorithm": "sapo", "seed": -1},
            {"algorithm": "sapo", "n": 2.5},
            {"algorithm": "sapo", "eval_every": 1.5},
            {"algorithm": "sapo", "learning_rate": math.inf},
            {"algorithm": "sapo", "l2": math.nan},
            {"algorithm": "sapo", "l2": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", "0.1"), ("l2", None), ("lr_decay", "1"), ("mira_clip", None),
        ("l2", 1j), ("learning_rate", Decimal("0.1")), ("lr_decay", np.array(1.0)),
        ("learning_rate", 10**400), ("mira_clip", 10**400)],
        ids=["learning_rate-str", "l2-None", "lr_decay-str", "mira_clip-None", "l2-complex",
             "learning_rate-Decimal", "lr_decay-array", "learning_rate-10**400",
             "mira_clip-10**400"])
    def test_float_field_of_wrong_type_names_the_field(self, name, value):
        with pytest.raises(ConfigError,
                           match="^%s must be (a real number|within float range)" % name):
            TrainConfig("mira", **{name: value}).validate()

    def test_float_fields_are_not_coerced(self):
        cfg = TrainConfig("sapo", learning_rate=1, l2=0, lr_decay=1, mira_clip=2).validate()
        assert [type(getattr(cfg, name)) for name in ("learning_rate", "l2", "lr_decay",
                                                      "mira_clip")] == [int] * 4

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", np.float32(0.1)), ("l2", np.int64(1)), ("learning_rate", Fraction(1, 10))],
        ids=["learning_rate-float32", "l2-int64", "learning_rate-Fraction"])
    def test_float_field_of_another_real_type_saves_as_float(self, tmp_path, name, value):
        corpus = small_corpus(count=10)
        cfg = TrainConfig("sapo", epochs=1, **{name: value})
        model, _ = train(corpus, None, cfg, TEMPLATES)
        save_model(model, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        assert type(getattr(cfg, name)) is float
        assert loaded.meta["config"][name] == float(value)
        assert loaded.meta == model.meta
        for seq in corpus:
            gold = model.tagset.ids(seq.gold)
            assert score_sequence(loaded, seq, gold) == score_sequence(model, seq, gold)

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(algorithm="sapo", epochs=1)
        with pytest.raises(ConfigError, match="empty"):
            train_sapo([], None, cfg, TEMPLATES)

    @pytest.mark.parametrize("held", [False, True])
    def test_token_column_count_mismatch_rejected(self, held):
        good = Sequence(tokens=[("a", "1"), ("b", "2")], gold=["X", "Y"])
        short = Sequence(tokens=[("a", "1"), ("b",)], gold=["X", "Y"])
        data, heldout = ([good], [good, short]) if held else ([good, short], None)
        where = "held-out sequence 1" if held else "training sequence 1"
        with pytest.raises(ConfigError, match="%s has a token of 1 columns; the training "
                           "corpus has 2" % where):
            train(data, heldout, TrainConfig(algorithm="perc", epochs=1),
                  "U00:%x[0,0]\nU01:%x[0,1]\n")

    def test_unlabeled_data_rejected(self):
        cfg = TrainConfig(algorithm="sapo", epochs=1)
        data = [Sequence(tokens=[("a",)], gold=None)]
        with pytest.raises(ConfigError, match="gold"):
            train_sapo(data, None, cfg, TEMPLATES)

    def test_heldout_tag_unseen_in_training_counts_as_an_error(self):
        # Held-out golds compare as strings, so a tag the model cannot emit is a miss.
        data, held = word_corpus([("a b", "X Y")]), word_corpus([("a b", "X Z")])
        _, curve = train(data, held, TrainConfig("perc", epochs=1, seed=1), "U00:%x[0,0]\n")
        assert curve[-1].heldout_metric == 0.5


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        corpus = small_corpus()
        cfg = TrainConfig(algorithm="sapo", n=3, epochs=3, seed=42)
        m1, c1 = train_sapo(corpus, None, cfg, TEMPLATES)
        m2, c2 = train_sapo(corpus, None, cfg, TEMPLATES)
        assert np.array_equal(m1.weights, m2.weights)
        assert [p.objective for p in c1.points] == [p.objective for p in c2.points]

    def test_seed_changes_trajectory(self):
        corpus = small_corpus()
        m1, _ = train_sapo(corpus, None, TrainConfig("sapo", epochs=2, seed=1), TEMPLATES)
        m2, _ = train_sapo(corpus, None, TrainConfig("sapo", epochs=2, seed=2), TEMPLATES)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_lr_schedule_changes_trajectory(self):
        corpus = small_corpus()
        fixed = TrainConfig("sapo", epochs=3, seed=5)
        decayed = TrainConfig("sapo", epochs=3, seed=5, lr_decay=0.5)
        m1, _ = train_sapo(corpus, None, fixed, TEMPLATES)
        m2, _ = train_sapo(corpus, None, decayed, TEMPLATES)
        assert not np.array_equal(m1.weights, m2.weights)


class TestSapoDescent:
    def test_objective_decreases_over_epochs(self):
        corpus = generate_synthetic_hmm(
            K=3, V=12, T_mean=6, count=100, seed=41, separability=0.5
        )
        cfg = TrainConfig("sapo", n=5, learning_rate=0.05, l2=1.0, epochs=10, seed=1)
        _, curve = train_sapo(corpus, None, cfg, TEMPLATES)
        assert curve[9].objective < curve[0].objective


class TestUnificationEquivalences:
    def test_sapo_n1_is_naive_perceptron(self):
        corpus = small_corpus(count=50)
        s_snaps, s_hook = snapshots()
        p_snaps, p_hook = snapshots()
        cfg_s = TrainConfig("sapo", n=1, learning_rate=1.0, l2=0.0, epochs=3, seed=9)
        cfg_p = TrainConfig("perc", epochs=3, seed=9)
        train_sapo(corpus, None, cfg_s, TEMPLATES, on_epoch_end=s_hook)
        train_perceptron(corpus, None, cfg_p, TEMPLATES, on_epoch_end=p_hook)
        for ws, wp in zip(s_snaps, p_snaps):
            assert np.array_equal(ws, wp)

    def test_sapo_exhaustive_is_crf_sgd(self):
        corpus = small_corpus(count=30, K=2, V=6)
        s_snaps, s_hook = snapshots()
        c_snaps, c_hook = snapshots()
        cfg_s = TrainConfig("sapo", n=10**6, learning_rate=0.05, l2=1.0, epochs=3, seed=4)
        cfg_c = TrainConfig("crf-sgd", learning_rate=0.05, l2=1.0, epochs=3, seed=4)
        train_sapo(corpus, None, cfg_s, TEMPLATES, on_epoch_end=s_hook)
        train_crf_sgd(corpus, None, cfg_c, TEMPLATES, on_epoch_end=c_hook)
        for ws, wc in zip(s_snaps, c_snaps):
            assert np.abs(ws - wc).max() < 1e-9


class TestCrfSgd:
    def test_descent_on_single_sample(self):
        data = word_corpus([("a b a", "X Y X"), ("b a", "Y X")])[:1]
        cfg = TrainConfig("crf-sgd", learning_rate=0.01, l2=0.0, epochs=25, seed=1)
        _, curve = train_crf_sgd(data, None, cfg, TEMPLATES)
        objectives = [p.objective for p in curve.points]
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_single_epoch_empty_heldout(self):
        corpus = small_corpus(count=10)
        cfg = TrainConfig("crf-sgd", epochs=1, seed=1)
        _, curve = train_crf_sgd(corpus, None, cfg, TEMPLATES)
        assert len(curve) == 1
        assert curve[0].heldout_metric is None

    def test_heldout_metric_recorded(self):
        corpus = small_corpus(count=20)
        held = small_corpus(seed=99, count=8)
        cfg = TrainConfig("crf-sgd", epochs=2, seed=1)
        _, curve = train_crf_sgd(corpus, held, cfg, TEMPLATES)
        assert all(0.0 <= p.heldout_metric <= 1.0 for p in curve.points)


class TestPerceptron:
    def test_correct_prediction_is_noop(self):
        # zero weights decode to the lex-first tag everywhere; with every
        # gold tag equal to it, no sample triggers an update
        data = word_corpus([("a b", "X X"), ("c", "X"), ("b b a", "X X X")])
        cfg = TrainConfig("perc", epochs=2, seed=3)
        model, _ = train_perceptron(data, None, cfg, TEMPLATES)
        assert not model.weights.any()

    def test_separable_corpus_reaches_zero_errors(self):
        corpus = generate_synthetic_hmm(K=2, V=6, T_mean=4, count=40, seed=2, separability=1.0)
        cfg = TrainConfig("perc", epochs=5, seed=2)
        model, _ = train_perceptron(corpus, None, cfg, UNIGRAM_ONLY)
        assert decode_accuracy(model, corpus) == 1.0

    def test_averaged_matches_replayed_snapshot_mean(self):
        # independent replay of the naive perceptron through the public API,
        # collecting the post-sample weight snapshots
        corpus = small_corpus(count=12, K=2, V=5)
        cfg = TrainConfig("perc-avg", epochs=2, seed=17)
        model_avg, _ = train_perceptron(corpus, None, cfg, TEMPLATES, averaged=True)
        cfg_naive = TrainConfig("perc", epochs=2, seed=17)
        model_naive, _ = train_perceptron(corpus, None, cfg_naive, TEMPLATES)

        ref = build_model(corpus.sequences, TEMPLATES, 1)
        snaps = []
        rng = np.random.default_rng(17)
        for _epoch in range(2):
            for i in rng.permutation(len(corpus.sequences)):
                seq = corpus.sequences[int(i)]
                gold = ref.tagset.ids(seq.gold)
                pred, _ = viterbi(build_lattice(ref, seq))
                if pred != gold:
                    delta = {}
                    for fid, v in extract_features(seq, gold, ref.templates, ref.index):
                        delta[fid] = delta.get(fid, 0.0) + v
                    for fid, v in extract_features(seq, pred, ref.templates, ref.index):
                        delta[fid] = delta.get(fid, 0.0) - v
                    for fid, v in delta.items():
                        ref.weights[fid] += v
                snaps.append(ref.weights.copy())
        assert np.array_equal(model_naive.weights, snaps[-1])
        assert np.abs(model_avg.weights - np.mean(snaps, axis=0)).max() < 1e-12

    def test_averaged_differs_from_naive(self):
        corpus = small_corpus(count=25)
        avg, _ = train_perceptron(
            corpus, None, TrainConfig("perc-avg", epochs=3, seed=1), TEMPLATES, averaged=True
        )
        naive, _ = train_perceptron(
            corpus, None, TrainConfig("perc", epochs=3, seed=1), TEMPLATES
        )
        assert not np.array_equal(avg.weights, naive.weights)

    def test_wrapper_follows_averaged_algorithm(self):
        corpus = small_corpus(count=25)
        cfg = TrainConfig("perc-avg", epochs=3, seed=1)
        wrapped, _ = train_perceptron(corpus, None, cfg, TEMPLATES)
        direct, _ = train(corpus, None, cfg, TEMPLATES)
        assert np.array_equal(wrapped.weights, direct.weights)

    @pytest.mark.parametrize(
        "trainer,algorithm,averaged",
        [(train_perceptron, "perc", True), (train_mira, "mira-avg", False)],
    )
    def test_averaged_contradicting_algorithm_rejected(self, trainer, algorithm, averaged):
        data = word_corpus([("x x", "X X"), ("y y", "Y Y")])
        with pytest.raises(ConfigError, match="contradicts"):
            trainer(data, None, TrainConfig(algorithm, epochs=1), TEMPLATES, averaged=averaged)


class TestMira:
    def test_hand_update_values(self):
        # zero weights predict the lex-first tag everywhere, so the second
        # sequence is mistagged: hamming 2, dF = +-2 on two features,
        # alpha = 2/8, weights move by +-0.5
        data = word_corpus([("x x", "X X"), ("y y", "Y Y")])
        cfg = TrainConfig("mira", epochs=1, seed=1)
        model, _ = train_mira(data, None, cfg, UNIGRAM_ONLY)
        rid = model.index.lookup_raw("U00=y")
        K = 2
        assert model.weights[rid * K + model.tagset.id("Y")] == 0.5
        assert model.weights[rid * K + model.tagset.id("X")] == -0.5

    def test_clip_caps_step(self):
        # the same update as above with alpha = 2/8 clipped to C = 0.1
        data = word_corpus([("x x", "X X"), ("y y", "Y Y")])
        cfg = TrainConfig("mira", epochs=1, seed=1, mira_clip=0.1)
        model, _ = train_mira(data, None, cfg, UNIGRAM_ONLY)
        rid = model.index.lookup_raw("U00=y")
        K = 2
        assert model.weights[rid * K + model.tagset.id("Y")] == 0.2
        assert model.weights[rid * K + model.tagset.id("X")] == -0.2

    def test_stable_after_satisfying_margin(self):
        data = word_corpus([("x x", "X X"), ("y y", "Y Y")])
        m1, _ = train_mira(data, None, TrainConfig("mira", epochs=1, seed=1), UNIGRAM_ONLY)
        m3, _ = train_mira(data, None, TrainConfig("mira", epochs=3, seed=1), UNIGRAM_ONLY)
        assert np.array_equal(m1.weights, m3.weights)

    def test_separable_corpus_reaches_zero_errors(self):
        corpus = generate_synthetic_hmm(K=2, V=6, T_mean=4, count=40, seed=8, separability=1.0)
        cfg = TrainConfig("mira", epochs=5, seed=2)
        model, _ = train_mira(corpus, None, cfg, UNIGRAM_ONLY)
        assert decode_accuracy(model, corpus) == 1.0


class TestMiraNbest:
    def test_n1_identical_to_mira(self):
        corpus = small_corpus(count=30)
        n_snaps, n_hook = snapshots()
        m_snaps, m_hook = snapshots()
        train_mira_nbest(
            corpus, None, TrainConfig("mira-nbest", n=1, epochs=3, seed=6), TEMPLATES,
            on_epoch_end=n_hook,
        )
        train_mira(
            corpus, None, TrainConfig("mira", epochs=3, seed=6), TEMPLATES, on_epoch_end=m_hook
        )
        for wn, wm in zip(n_snaps, m_snaps):
            assert np.array_equal(wn, wm)

    def test_every_step_meets_the_kkt_conditions(self, monkeypatch):
        # Each step's dual max b.a - a.G.a/2 over 0 <= a <= C is solved exactly: the
        # gradient g = b - G.a is <= 0 where a = 0, >= 0 where a = C and 0 in between.
        corpus = generate_synthetic_hmm(K=5, V=50, T_mean=10, count=60, seed=2024,
                                        separability=0.5)
        templates = ("U00:%x[-1,0]\nU01:%x[0,0]\nU02:%x[1,0]\n"
                     "U03:%x[-1,0]/%x[0,0]\nU04:%x[-1,0]/%x[0,0]/%x[1,0]\nB\n")
        solves = []
        solve = training._box_dual

        def recorded(G, b, C):
            alpha = solve(G, b, C)
            solves.append((G, b, C, alpha))
            return alpha

        monkeypatch.setattr(training, "_box_dual", recorded)
        cfg = TrainConfig("mira-nbest-avg", n=5, epochs=1, seed=1)
        train_mira_nbest(corpus, None, cfg, templates)
        assert len(solves) == 60 and {len(b) for _, b, _, _ in solves} == {4, 5}
        for G, b, C, alpha in solves:
            for k, a_k in enumerate(alpha):
                terms = [G[k][j] * a_j for j, a_j in enumerate(alpha)]
                g = b[k] - sum(terms)
                tol = 1e-9 * (abs(b[k]) + sum(map(abs, terms)))
                assert 0.0 <= a_k <= C
                assert g <= tol if a_k == 0.0 else g >= -tol if a_k == C else abs(g) <= tol

    @pytest.mark.parametrize("clip", [math.inf, 1.0])
    def test_underflowing_gram_entry(self, clip):
        # A nonzero dF whose squares underflow gives G = 0: the active-set loop's
        # singular case, unbounded with C = inf (held at 0) and solved at C otherwise.
        assert training._box_dual([[0.0]], [1.0], clip) == [0.0 if clip == math.inf else clip]
        assert training._box_dual([[0.0]], [-1.0], clip) == [0.0]

    @pytest.mark.parametrize("clip", [math.inf, 1.0])
    def test_contradictory_candidates(self, clip):
        # Candidates XX and YY of "a a"/"X Y" have dF_YY = -dF_XX, so G is singular and
        # both margins cannot hold.  With C = inf the dual is unbounded along (1, 1), a
        # direction that leaves D^T a unchanged: the candidate freed first takes the
        # one-candidate step and the other stays at 0, so the weights of "a" swing by
        # +-1 each epoch.  With C = 1 the optimum has both at C (no free variable), and
        # no update.
        G, b = [[2.0, -2.0], [-2.0, 2.0]], [1.0, 1.0]
        assert training._box_dual(G, b, clip) == ([0.5, 0.0] if clip == math.inf else [1.0, 1.0])
        # A third, independent candidate is still freed after the second stays at 0.
        G3 = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert training._box_dual(G3, [1.0, 1.0, 1.0], clip) == (
            [1.0, 0.0, 1.0] if clip == math.inf else [1.0, 1.0, 1.0])
        data = word_corpus([("a a", "X Y"), ("b", "X"), ("c", "Y")])
        cfg = TrainConfig("mira-nbest", n=4, epochs=2, seed=1, mira_clip=clip)
        model, _ = train_mira_nbest(data, None, cfg, UNIGRAM_ONLY)
        assert np.isfinite(model.weights).all()
        a = model.index.lookup_raw("U00=a") * 2
        assert model.weights[a:a + 2].tolist() == ([0.5, -0.5] if clip == math.inf else [0, 0])

    def test_single_tagging_noop(self):
        data = word_corpus([("a b", "T T"), ("b", "T")])
        cfg = TrainConfig("mira-nbest", n=4, epochs=2, seed=1)
        model, _ = train_mira_nbest(data, None, cfg, TEMPLATES)
        assert not model.weights.any()

    def test_constraints_satisfied_after_update(self):
        # one sample, one epoch: every top-n constraint must hold afterwards
        data = word_corpus([("a b c", "X Y X")])
        cfg = TrainConfig("mira-nbest", n=3, epochs=1, seed=1)
        model, _ = train_mira_nbest(data, None, cfg, TEMPLATES)
        seq = data[0]
        gold = model.tagset.ids(seq.gold)
        # candidates under the *initial* (zero) weights: lex-first paths
        zero = build_model(data, TEMPLATES, 1)
        from sapo import astar_nbest

        nb = astar_nbest(build_lattice(zero, seq), 3)
        from sapo import score_sequence

        for path in nb.paths:
            loss = sum(a != b for a, b in zip(path, gold))
            if loss == 0:
                continue
            margin = score_sequence(model, seq, gold) - score_sequence(model, seq, list(path))
            assert margin >= loss - 1e-6

    def test_clip_bounds_update(self):
        data = word_corpus([("x x", "X X"), ("y y", "Y Y")])
        cfg = TrainConfig("mira-nbest", n=2, epochs=1, seed=1, mira_clip=0.05)
        model, _ = train_mira_nbest(data, None, cfg, UNIGRAM_ONLY)
        # each of the n duals is clipped to C, so any coordinate moves by
        # at most C * n * max|dF|
        assert np.abs(model.weights).max() <= 0.05 * 2 * 2 + 1e-12


class TestWeightState:
    def test_decay_shrinks_norm_exactly(self, rng):
        state = WeightState(16, averaging=False)
        state.v[:] = rng.normal(size=16)
        base = state.v.copy()
        factor = 1.0 - 0.05 * 1.0 / 20
        for u in range(1, 41):
            state.decay(factor)
            state.end_sample()
            w = state.current_weights()
            assert np.array_equal(w, base * state.scale)
            ratio = np.linalg.norm(w) / np.linalg.norm(base)
            assert ratio == pytest.approx(factor**u, rel=1e-12)

    def test_sparse_add_respects_scale(self):
        state = WeightState(4, averaging=False)
        state.sparse_add([(1, 2.0)], -0.5)
        state.decay(0.5)
        state.sparse_add([(1, 2.0)], -0.5)
        # -1 before decay, then (-1 * 0.5 - 1) = -1.5 after
        assert state.current_weights()[1] == pytest.approx(-1.5)

    def test_averaging_tracks_snapshot_mean(self, rng):
        state = WeightState(6, averaging=True)
        mirror = np.zeros(6)
        snaps = []
        for step in range(50):
            items = [(int(rng.integers(6)), float(rng.normal()))]
            coeff = float(rng.normal())
            state.sparse_add(items, coeff)
            for fid, v in items:
                mirror[fid] += coeff * v / state.scale
            if step % 3 == 0:
                state.decay(0.99)
            state.end_sample()
            snaps.append(mirror * state.scale)
        assert np.abs(state.averaged_weights() - np.mean(snaps, axis=0)).max() < 1e-12

    def test_average_needs_averaging(self):
        with pytest.raises(RuntimeError, match=r"^averaging is not enabled$"):
            WeightState(3).averaged_weights()


class TestOrchestration:
    def test_same_seed_same_permutation(self):
        steps1, steps2 = [], []
        run_epoch(steps1.append, list(range(10)), np.random.default_rng(3))
        run_epoch(steps2.append, list(range(10)), np.random.default_rng(3))
        assert steps1 == steps2

    def test_epoch_timing_positive(self):
        corpus = small_corpus(count=10)
        _, curve = train_sapo(corpus, None, TrainConfig("sapo", epochs=1), TEMPLATES)
        assert curve[0].epoch_seconds > 0.0

    def test_chunk_f1_heldout_metric(self):
        rows = [("a b c d", "B-N I-N O B-V"), ("c a b", "O B-N I-N"), ("d b a", "B-V B-N O")]
        data, held = word_corpus(rows), word_corpus([("a b d c", "B-N I-N B-V O"),
                                                     ("b a d", "I-N B-N O")])
        cfg = TrainConfig("perc", epochs=1, seed=2, metric="chunk-f1")
        model, curve = train(data, held, cfg, TEMPLATES)
        preds = viterbi_tags(model, compile_corpus(model, held), model.weights)
        assert curve[-1].heldout_metric == chunk_f1(held, preds).value
        assert curve[-1].heldout_metric != token_accuracy(held, preds).value

    def test_chunk_f1_heldout_metric_rejects_non_bio_tags_before_training(self):
        data, held = word_corpus([("a b", "B-N O"), ("c a", "X B-N")]), word_corpus([("a", "B-N")])
        epochs = []
        with pytest.raises(ConfigError, match="training sequence 1 has a malformed BIO tag 'X'"):
            train(data, held, TrainConfig("perc", epochs=1, metric="chunk-f1"), TEMPLATES,
                  on_epoch_end=lambda epoch, weights: epochs.append(epoch))
        assert epochs == []

    def test_permutations_redrawn_each_epoch(self):
        orders = []
        rng = np.random.default_rng(0)
        for _ in range(2):
            order, _ = run_epoch(lambda i: None, list(range(20)), rng)
            orders.append(list(order))
        assert orders[0] != orders[1]


class TestNonFiniteAbort:
    def test_overflowing_decay_aborts(self):
        corpus = small_corpus(count=10, sep=0.0)
        cfg = TrainConfig("sapo", n=1, learning_rate=1e200, l2=1e200, epochs=3, seed=1)
        with pytest.raises(NonFiniteError, match="epoch"):
            train_sapo(corpus, None, cfg, TEMPLATES)


class TestDispatcher:
    @pytest.mark.parametrize(
        "algo",
        ["sapo", "crf-sgd", "perc", "perc-avg", "mira", "mira-avg", "mira-nbest", "mira-nbest-avg"],
    )
    def test_all_algorithms_run(self, algo):
        corpus = small_corpus(count=10)
        cfg = TrainConfig(algo, n=2, epochs=1, seed=1)
        model, curve = train(corpus, None, cfg, TEMPLATES)
        assert len(curve) == 1
        assert np.isfinite(model.weights).all()
        assert model.meta["config"]["algorithm"] == algo
        assert 0.0 <= model.meta["train_accuracy"] <= 1.0

    def test_wrapper_algorithm_mismatch(self):
        corpus = small_corpus(count=5)
        with pytest.raises(ConfigError):
            train_sapo(corpus, None, TrainConfig("perc"), TEMPLATES)


class TestScaleFold:
    def test_long_strong_decay_run_finishes(self):
        # lr*l2/|S| = 0.9 shrinks the scale by 10x per sample: it would
        # underflow to 0 in epoch 16 without folding
        corpus = generate_synthetic_hmm(K=3, V=10, T_mean=5, count=20, seed=1, separability=0.5)
        cfg = TrainConfig("crf-sgd", learning_rate=0.9, l2=20.0, epochs=30, seed=1)
        model, curve = train(corpus, None, cfg, "U00:%x[0,0]\nB\n")
        assert len(curve) == 30
        assert all(math.isfinite(p.objective) for p in curve.points)
        assert np.isfinite(model.weights).all()

    def test_fold_keeps_current_and_averaged_weights(self, rng, monkeypatch):
        monkeypatch.setattr(training, "SCALE_FLOOR", 0.5)
        state = WeightState(8, averaging=True)
        mirror = np.zeros(8)
        snaps = []
        folds = 0
        for _ in range(60):
            items = [(int(rng.integers(8)), float(rng.normal()))]
            coeff = float(rng.normal())
            state.sparse_add(items, coeff)
            for fid, v in items:
                mirror[fid] += coeff * v
            avg_before = state.averaged_weights() if snaps else None
            scale_before = state.scale
            state.decay(0.7)
            mirror *= 0.7
            if state.scale > scale_before:  # folded into v
                folds += 1
                assert state.scale == 1.0
                assert np.abs(state.averaged_weights() - avg_before).max() <= (
                    1e-12 * np.abs(avg_before).max())
            assert np.abs(state.current_weights() - mirror).max() <= 1e-12 * np.abs(mirror).max()
            state.end_sample()
            snaps.append(mirror.copy())
        assert folds >= 10
        mean = np.mean(snaps, axis=0)
        assert np.abs(state.averaged_weights() - mean).max() <= 1e-12 * np.abs(mean).max()


class TestShrinkFactor:
    @pytest.mark.parametrize("algo", ["sapo", "crf-sgd"])
    @pytest.mark.parametrize("l2", [20.0, 40.0])
    def test_non_positive_shrink_rejected(self, algo, l2):
        # 20 sequences: lr*l2/|S| = 1 (factor 0) or 2 (factor -1)
        corpus = small_corpus(count=20)
        cfg = TrainConfig(algo, learning_rate=1.0, l2=l2, epochs=1, seed=1)
        with pytest.raises(ConfigError, match=r"1 - 1\.0\*%r/20 = %r" % (l2, 1.0 - l2 / 20)):
            train(corpus, None, cfg, TEMPLATES)

    def test_factor_just_below_one_accepted(self):
        corpus = small_corpus(count=20)
        cfg = TrainConfig("crf-sgd", learning_rate=0.95, l2=20.0, epochs=1, seed=1)
        _, curve = train(corpus, None, cfg, TEMPLATES)
        assert math.isfinite(curve[0].objective)


class TestNonFiniteLocation:
    # Values near the float limit overflow a weight within a few updates.
    PAIRS = [Sequence(tokens=[("a", "1e308"), ("b", "-1e308")], gold=["X", "Y"]),
             Sequence(tokens=[("b", "1e308"), ("a", "1e308")], gold=["Y", "X"])] * 5
    MIXED = [Sequence(tokens=[("a", "1e308"), ("b", "1e308")], gold=["X", "Y"]),
             Sequence(tokens=[("b", "1e308"), ("a", "1e308")], gold=["Y", "X"]),
             Sequence(tokens=[("a", "1"), ("b", "1")], gold=["X", "Y"]),
             Sequence(tokens=[("b", "1"), ("a", "1")], gold=["Y", "X"])]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algo, data, seed, culprit, visit", [
        ("perc", PAIRS, 4, 9, 5), ("perc-avg", PAIRS, 4, 9, 5),
        ("sapo", MIXED, 1, 1, 2), ("crf-sgd", MIXED, 1, 1, 2)],
        ids=["perc", "perc-avg", "sapo", "crf-sgd"])
    def test_non_finite_weights_name_the_update_that_made_them(
            self, monkeypatch, algo, data, seed, culprit, visit):
        # A full scan of the weights after every step first fails after the culprit's
        # update, the visit-th of the epoch, and training stops right there.
        scans = []
        end_sample = WeightState.end_sample

        def scanned(state):
            end_sample(state)
            scans.append(math.isfinite(state.scale) and bool(np.isfinite(state.v).all()))

        monkeypatch.setattr(WeightState, "end_sample", scanned)
        with pytest.raises(NonFiniteError) as info:
            train(data, None, TrainConfig(algo, epochs=1, seed=seed), "U00:%x[0,0]/%v[0,1]\nB\n")
        assert scans == [True] * (visit - 1) + [False]
        assert np.random.default_rng(seed).permutation(len(data))[visit - 1] == culprit
        assert str(info.value) == "non-finite weights detected after sample %d in epoch 1" % culprit
        assert (info.value.sample_index, info.value.epoch) == (culprit, 1)

    # Weights of +-1e308 are finite, but weight x value overflows every score.
    OVERFLOWING = [Sequence(tokens=[("a", "1e308"), ("b", "1e308")], gold=["X", "Y"]),
                   Sequence(tokens=[("b", "1e308"), ("a", "1e308")], gold=["Y", "X"])]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["perc", "perc-avg"])
    def test_non_finite_objective_names_its_first_term(self, algo):
        cfg = TrainConfig(algo, epochs=3, seed=3)
        with pytest.raises(NonFiniteError) as info:
            train(self.OVERFLOWING, None, cfg, "U00:%x[0,0]/%v[0,1]\nB\n")
        assert str(info.value) == "non-finite objective term of sequence 0 in epoch 1"
        assert (info.value.sample_index, info.value.epoch) == (0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_regularizer_names_no_sequence(self):
        # |w| = 1e154 keeps each score finite while ||w||^2 overflows.
        data = [Sequence(tokens=[("a", "1e154")], gold=["X"]),
                Sequence(tokens=[("b", "1e154")], gold=["Y"])]
        with pytest.raises(NonFiniteError) as info:
            train(data, None, TrainConfig("perc", epochs=2), "U00:%x[0,0]/%v[0,1]\n")
        assert str(info.value) == "non-finite objective (its L2 term) in epoch 1"
        assert info.value.sample_index is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["mira", "mira-avg", "mira-nbest", "mira-nbest-avg"])
    def test_non_finite_mira_step_names_its_sequence(self, algo):
        # Seed 3 visits sequence 1 first; its Gram matrix overflows before any update.
        cfg = TrainConfig(algo, n=2, epochs=3, seed=3)
        assert np.random.default_rng(3).permutation(2)[0] == 1
        with pytest.raises(NonFiniteError) as info:
            train(self.OVERFLOWING, None, cfg, "U00:%x[0,0]/%v[0,1]\nB\n")
        assert str(info.value) == "non-finite MIRA margins or Gram matrix at sequence 1 in epoch 1"
        assert (info.value.sample_index, info.value.epoch) == (1, 1)

import io

import numpy as np
import pytest

from sapo import (
    Corpus,
    Sequence,
    build_model,
    chunk_f1,
    extract_chunks,
    token_accuracy,
    w_complexity,
    write_conll,
)
from sapo.features import FeatureIndex, Model

from conftest import word_corpus


class _Corpus:
    def __init__(self, seqs):
        self.sequences = seqs


def corpus_of(rows):
    return _Corpus(word_corpus(rows))


class TestTokenAccuracy:
    def test_identical_predictions(self):
        c = corpus_of([("a b", "X Y")])
        assert token_accuracy(c, [["X", "Y"]]).value == 1.0

    def test_all_wrong(self):
        c = corpus_of([("a b", "X Y")])
        assert token_accuracy(c, [["Y", "X"]]).value == 0.0

    def test_hand_arithmetic(self):
        c = corpus_of([("a b c d e", "X X X X X"), ("f g h i j", "Y Y Y Y Y")])
        preds = [["X", "X", "X", "X", "Y"], ["Y", "Y", "Y", "X", "X"]]
        report = token_accuracy(c, preds)
        assert report.value == pytest.approx(0.7)
        assert report.counts == {"correct": 7, "total": 10}
        assert report.per_tag[("X", "Y")] == 1
        assert report.per_tag[("Y", "X")] == 2

    def test_shape_mismatch(self):
        c = corpus_of([("a b", "X Y")])
        with pytest.raises(ValueError):
            token_accuracy(c, [["X"]])
        with pytest.raises(ValueError):
            token_accuracy(c, [])
        unlabeled = _Corpus([Sequence([("a",)])])
        with pytest.raises(ValueError, match=r"^sequence 0 has no gold tags$"):
            token_accuracy(unlabeled, [["X"]])

    def test_summary_line(self):
        c = corpus_of([("a", "X")])
        assert token_accuracy(c, [["X"]]).summary() == "accuracy=1.0000 correct=1 total=1"


class TestExtractChunks:
    def test_basic(self):
        assert extract_chunks(["B-NP", "I-NP", "O"]) == {(0, 1, "NP")}

    def test_orphan_inside_opens_chunk(self):
        assert extract_chunks(["O", "I-NP", "I-NP"]) == {(1, 2, "NP")}

    def test_type_change_closes_chunk(self):
        assert extract_chunks(["B-NP", "I-VP"]) == {(0, 0, "NP"), (1, 1, "VP")}

    def test_adjacent_chunks(self):
        assert extract_chunks(["B-NP", "B-NP"]) == {(0, 0, "NP"), (1, 1, "NP")}

    def test_malformed_tag(self):
        with pytest.raises(ValueError, match="malformed"):
            extract_chunks(["B-NP", "NP"])


class TestChunkF1:
    def test_exact_match(self):
        c = corpus_of([("a b c", "B-NP I-NP O")])
        report = chunk_f1(c, [["B-NP", "I-NP", "O"]])
        assert report.value == 1.0
        assert report.counts == {"matched": 1, "predicted": 1, "gold": 1}

    def test_no_predicted_chunks(self):
        c = corpus_of([("a b c", "B-NP I-NP O")])
        report = chunk_f1(c, [["O", "O", "O"]])
        assert report.value == 0.0

    def test_boundary_error_kills_both_chunks(self):
        # gold has chunks (0,1,NP) and (2,2,NP); the prediction merges them
        c = corpus_of([("a b c d", "B-NP I-NP B-NP O")])
        report = chunk_f1(c, [["B-NP", "I-NP", "I-NP", "O"]])
        assert report.counts == {"matched": 0, "predicted": 1, "gold": 2}
        assert report.value == 0.0

    def test_precision_recall_arithmetic(self):
        c = corpus_of([("a b c d", "B-NP O B-VP O")])
        report = chunk_f1(c, [["B-NP", "O", "O", "B-VP"]])
        # P = 1/2, R = 1/2 -> F1 = 1/2
        assert report.value == pytest.approx(0.5)

    def test_per_tag_counts(self):
        c = corpus_of([("a b", "B-NP B-VP")])
        report = chunk_f1(c, [["B-NP", "B-NP"]])
        assert report.per_tag[("gold", "NP")] == 1
        assert report.per_tag[("predicted", "NP")] == 2
        assert report.per_tag[("matched", "NP")] == 1
        lines = report.per_tag_csv_lines()
        assert lines[0] == "type,matched,predicted,gold"


def _write_conll(corpus, predictions):
    out = io.StringIO()
    write_conll(Corpus(corpus.sequences, n_columns=1), out, predictions)
    assert out.getvalue() == ""  # the check comes before anything is written


class TestTaggingShape:
    """Predictions must give one tagging per sequence, as long as it: the same rule and
    messages for the writer and both scorers."""

    @pytest.mark.parametrize("consumer", [token_accuracy, chunk_f1, _write_conll])
    @pytest.mark.parametrize("predictions, message", [
        ([["B-NP", "O"]], "got predictions for 1 sequences, corpus has 2"),
        ([["B-NP", "O"], ["O"], ["O"]], "got predictions for 3 sequences, corpus has 2"),
        ([["B-NP", "O"], ["O"]], "sequence 1: 1 predictions for 3 tokens"),
        ([["B-NP"], ["O", "O", "O", "O"]], "sequence 0: 1 predictions for 2 tokens"),
    ])
    def test_count_and_length_faults(self, consumer, predictions, message):
        c = corpus_of([("a b", "B-NP O"), ("c d e", "O B-VP I-VP")])
        with pytest.raises(ValueError) as e:
            consumer(c, predictions)
        assert str(e.value) == message


class TestWComplexity:
    def _model_with_weights(self, tags, values):
        seqs = word_corpus([("w " * len(tags), " ".join(tags))])
        model = build_model(seqs, "U00:%x[0,0]\n", 1)
        assert model.index.n_features == len(values)
        model.weights[:] = values
        return model

    def test_zero_model(self):
        model = self._model_with_weights(["A", "B"], [0.0, 0.0])
        assert w_complexity(model) == 0.0

    def test_mixed_signs(self):
        model = self._model_with_weights(["A", "B"], [1.0, -1.0])
        assert w_complexity(model) == 1.0

    def test_zeros_included_in_mean(self):
        model = self._model_with_weights(["A", "B", "C"], [0.0, 0.0, 3.0])
        assert w_complexity(model) == 1.0

    def test_model_without_features_rejected(self):
        model = self._model_with_weights(["A"], [0.0])
        empty = Model(model.tagset, FeatureIndex(1, False), model.templates, np.zeros(0), 1)
        with pytest.raises(ValueError, match=r"^model has no features$"):
            w_complexity(empty)

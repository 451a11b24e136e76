import io
import re
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from sapo import (
    Corpus,
    FormatError,
    ModelFileError,
    Sequence,
    build_model,
    generate_synthetic_hmm,
    load_model,
    read_conll,
    save_model,
    score_sequence,
    synthetic_hmm_params,
    write_conll,
)
from sapo import dataio


class TestReadConll:
    def test_two_line_labeled_file(self):
        corpus = read_conll(io.StringIO("the DT\ndog NN\n"))
        assert len(corpus) == 1
        seq = corpus.sequences[0]
        assert seq.tokens == [("the",), ("dog",)]
        assert seq.gold == ["DT", "NN"]
        assert corpus.n_columns == 1

    def test_blank_line_separates_blocks(self):
        corpus = read_conll(io.StringIO("a X\n\nb Y\nc Z\n"))
        assert len(corpus) == 2
        assert [len(s) for s in corpus.sequences] == [1, 2]

    def test_ragged_row_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            read_conll(io.StringIO("a X\nb Y\nc\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError, match="empty"):
            read_conll(io.StringIO("\n\n"))

    def test_crlf_tolerated(self):
        corpus = read_conll(io.StringIO("the DT\r\ndog NN\r\n\r\n"))
        assert corpus.sequences[0].gold == ["DT", "NN"]

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # As in compile_templates and a file read with universal newlines.
        text = "a X\rb Y\n\nc X\n"
        path = tmp_path / "lone-cr.conll"
        path.write_bytes(text.encode())
        for source in (path, io.StringIO(text), io.StringIO(text, newline="")):
            corpus = read_conll(source)
            assert [s.tokens for s in corpus.sequences] == [[("a",), ("b",)], [("c",)]]
            assert [s.gold for s in corpus.sequences] == [["X", "Y"], ["X"]]

    def test_trailing_blank_lines_tolerated(self):
        corpus = read_conll(io.StringIO("a X\n\n\n\n"))
        assert len(corpus) == 1

    def test_unlabeled_mode(self):
        corpus = read_conll(io.StringIO("the DT\ndog NN\n"), labeled=False)
        assert corpus.n_columns == 2
        assert corpus.sequences[0].gold is None

    def test_single_column_labeled_rejected(self):
        with pytest.raises(FormatError, match="2 columns"):
            read_conll(io.StringIO("a\nb\n"))


class TestWriteConll:
    def test_round_trip_fixpoint(self, tmp_path):
        text = "the DT\ndog NN\n\na X\nb Y\nc Z\n"
        original = read_conll(io.StringIO(text))
        p1, p2 = tmp_path / "one.conll", tmp_path / "two.conll"
        write_conll(original, p1)
        reread = read_conll(p1)
        assert [(s.tokens, s.gold) for s in reread.sequences] == [
            (s.tokens, s.gold) for s in original.sequences
        ]
        write_conll(reread, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_appended(self, tmp_path):
        corpus = read_conll(io.StringIO("the DT\ndog NN\n"))
        out = tmp_path / "pred.conll"
        write_conll(corpus, out, predictions=[["X", "Y"]])
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["the", "DT", "X"]
        assert lines[1].split("\t") == ["dog", "NN", "Y"]

    def test_crlf_input_written_as_lf(self, tmp_path):
        corpus = read_conll(io.StringIO("a X\r\nb Y\r\n"))
        out = tmp_path / "o.conll"
        write_conll(corpus, out)
        assert b"\r" not in out.read_bytes()

    def test_shape_mismatch(self, tmp_path):
        corpus = read_conll(io.StringIO("a X\nb Y\n"))
        with pytest.raises(ValueError):
            write_conll(corpus, tmp_path / "x", predictions=[["X"]])
        with pytest.raises(ValueError):
            write_conll(corpus, tmp_path / "x", predictions=[["X", "Y"], ["Z"]])


    @pytest.mark.parametrize("char", [" ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0",
                                      "\u2028", "\u3000"])
    @pytest.mark.parametrize("where", ["token", "gold", "prediction"])
    def test_string_holding_whitespace_rejected(self, tmp_path, char, where):
        # str.split splits a line there, so the file would not read back.
        bad = "a%sb" % char
        tokens, gold, pred = [("x",), ("y",)], ["X", "Y"], ["P", "Q"]
        {"token": tokens, "gold": gold, "prediction": pred}[where][1] = (
            (bad,) if where == "token" else bad)
        corpus = Corpus([Sequence([("w",)], ["W"]), Sequence(tokens, gold)], 1)
        out = tmp_path / "x.conll"
        with pytest.raises(ValueError, match=r"^cannot write %s of sequence 1: it holds "
                                             "whitespace" % re.escape(repr(bad))):
            write_conll(corpus, out, predictions=[["V"], pred])
        assert not out.exists()

    @pytest.mark.parametrize("where", ["token", "gold", "prediction"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_empty_string_rejected(self, tmp_path, where, at, columns):
        # An empty cell leaves two separators adjacent, or a blank line inside a
        # sequence (or at its end, next to the blank line after it), so the file
        # would not read back.
        tokens = [("x", "1")[:columns], ("y", "2")[:columns], ("z", "3")[:columns]]
        gold, pred = ["X", "Y", "Z"], ["P", "Q", "R"]
        if where == "token":
            tokens[at] = ("",) + tokens[at][1:]
        else:
            {"gold": gold, "prediction": pred}[where][at] = ""
        for labeled in (True, False) if where == "token" else (True,):
            for with_pred in (True, False) if where != "prediction" else (True,):
                seqs = [Sequence([("w", "0")[:columns]], ["W"] if labeled else None),
                        Sequence(tokens, gold if labeled else None),
                        Sequence([("v", "0")[:columns]], ["V"] if labeled else None)]
                out = tmp_path / "x.conll"
                with pytest.raises(ValueError, match=r"^cannot write '' of sequence 1: it is "
                                                     "empty, so the file would not read back"):
                    write_conll(Corpus(seqs, columns), out,
                                predictions=[["A"], pred, ["B"]] if with_pred else None)
                assert not out.exists()

    def test_other_strings_round_trip(self, tmp_path):
        # Non-ASCII text that holds no whitespace, a zero-width space among it.
        tokens = [("\u00e9t\u00e9",), ("a\u200bb",), ("\u2603",)]
        corpus = Corpus([Sequence(tokens, ["X", "\u00dc", "Y"]), Sequence([("b",)], ["X"])], 1)
        out = tmp_path / "x.conll"
        write_conll(corpus, out)
        reread = read_conll(out)
        assert [(s.tokens, s.gold) for s in reread.sequences] == [
            (s.tokens, s.gold) for s in corpus.sequences
        ]


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic_hmm(K=3, V=10, T_mean=5, count=10, seed=7, separability=0.5)
        b = generate_synthetic_hmm(K=3, V=10, T_mean=5, count=10, seed=7, separability=0.5)
        assert [(s.tokens, s.gold) for s in a.sequences] == [
            (s.tokens, s.gold) for s in b.sequences
        ]

    def test_lengths_clamped(self):
        corpus = generate_synthetic_hmm(K=2, V=4, T_mean=3, count=300, seed=1, separability=0.5)
        lengths = [len(s) for s in corpus.sequences]
        assert min(lengths) >= 1 and max(lengths) <= 12

    def test_fully_separable_word_determines_tag(self):
        corpus = generate_synthetic_hmm(K=2, V=6, T_mean=5, count=120, seed=3, separability=1.0)
        mapping = {}
        for seq in corpus.sequences:
            for (word,), tag in zip(seq.tokens, seq.gold):
                assert mapping.setdefault(word, tag) == tag

    def test_zero_separability_majority_baseline(self):
        K = 4
        corpus = generate_synthetic_hmm(K=K, V=12, T_mean=8, count=500, seed=5, separability=0.0)
        by_word = defaultdict(Counter)
        total = 0
        for seq in corpus.sequences:
            for (word,), tag in zip(seq.tokens, seq.gold):
                by_word[word][tag] += 1
                total += 1
        correct = sum(counts.most_common(1)[0][1] for counts in by_word.values())
        assert abs(correct / total - 1.0 / K) <= 0.05

    def test_transition_frequencies_converge(self):
        K = 3
        corpus = generate_synthetic_hmm(
            K=K, V=9, T_mean=12, count=9000, seed=13, separability=0.5
        )
        n_tokens = sum(len(s) for s in corpus.sequences)
        assert n_tokens >= 10**5
        counts = np.zeros((K, K))
        for seq in corpus.sequences:
            ids = [int(t[1:]) for t in seq.gold]
            for a, b in zip(ids, ids[1:]):
                counts[a, b] += 1
        _, trans, _ = synthetic_hmm_params(K=K, V=9, seed=13, separability=0.5)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        tv = 0.5 * np.abs(empirical - trans).sum(axis=1).max()
        assert tv <= 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"K": 1, "V": 5},
            {"K": 3, "V": 2},
            {"K": 2, "V": 4, "separability": 1.5},
            {"K": 2, "V": 4, "count": 0},
            {"K": 2, "V": 4, "T_mean": 0},
        ],
    )
    def test_parameter_bounds(self, kwargs):
        full = {"K": 2, "V": 4, "T_mean": 4, "count": 5, "seed": 1, "separability": 0.5}
        full.update(kwargs)
        with pytest.raises(ValueError):
            generate_synthetic_hmm(**full)

    @pytest.mark.parametrize("mean", [float("inf"), float("nan")])
    def test_non_finite_mean_length_rejected(self, mean):
        with pytest.raises(ValueError, match="^T_mean must be finite, got %r$" % mean):
            generate_synthetic_hmm(K=2, V=4, T_mean=mean, count=5, seed=1, separability=0.5)


def _toy_model(rng):
    corpus = generate_synthetic_hmm(K=3, V=8, T_mean=4, count=20, seed=21, separability=0.6)
    model = build_model(corpus.sequences, "U00:%x[0,0]\nU01:%x[-1,0]\nB\n", 1)
    model.weights[:] = rng.normal(size=model.index.n_features)
    # sprinkle exact zeros so the "absent from file" path is exercised
    model.weights[:: 7] = 0.0
    model.meta = {"note": "toy", "l2": 1.0}
    return model, corpus


class TestModelPersistence:
    def test_round_trip_score_identity(self, rng, tmp_path):
        model, corpus = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.tagset.tags == model.tagset.tags
        assert loaded.n_columns == model.n_columns
        assert loaded.meta == model.meta
        probe = generate_synthetic_hmm(
            K=3, V=10, T_mean=5, count=50, seed=77, separability=0.3
        )
        worst = 0.0
        for seq in probe.sequences:
            y = [int(rng.integers(3)) for _ in range(len(seq))]
            a = score_sequence(model, seq, y)
            b = score_sequence(loaded, seq, y)
            worst = max(worst, abs(a - b))
        assert worst == 0.0

    def test_exact_file_bytes(self):
        seqs = [Sequence(tokens=[("b",), ("a",)], gold=["Y", "X"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", n_columns=1)
        # rows: raw "U00=b", "U00=a"; tags Y, X (first occurrence); then Y/X bigrams
        model.weights = np.array([0.1 + 0.2, 0.0, -0.0, -2.5, 1.0, 0.0, -0.125, 1e-300])
        model.meta = {"b": 1, "a": [1.5]}
        out = io.StringIO()
        save_model(model, out)
        assert out.getvalue() == (
            "version\t1\ncolumns\t1\ntags\tY\tX\n"
            'config\t{"a": [1.5], "b": 1}\n'
            "templates-begin\nU00:%x[0,0]\nB\ntemplates-end\n"
            "E\tU00=b\tY\t0.30000000000000004\n"
            "E\tU00=a\tX\t-2.5\n"
            "T\tY\tY\t1.0\n"
            "T\tX\tY\t-0.125\n"
            "T\tX\tX\t1e-300\n"
        )
        loaded = load_model(io.StringIO(out.getvalue()))
        assert loaded.index.raw_strings == ["U00=b", "U00=a"]
        assert loaded.weights.tolist() == model.weights.tolist()

        plain = build_model(seqs, "U00:%x[0,0]", n_columns=1)
        plain.weights = np.array([0.0, 0.75, -3.0, 0.0])
        out = io.StringIO()
        save_model(plain, out)
        assert out.getvalue() == (
            "version\t1\ncolumns\t1\ntags\tY\tX\nconfig\t{}\n"
            "templates-begin\nU00:%x[0,0]\ntemplates-end\n"
            "E\tU00=b\tX\t0.75\n"
            "E\tU00=a\tY\t-3.0\n"
        )
        loaded = load_model(io.StringIO(out.getvalue()))
        assert loaded.weights.tolist() == plain.weights.tolist()

    @pytest.mark.parametrize("text", ["# a\rU01:%x[0,0]\nU00:%x[0,0]\nB\n",
                                      "U00:%x[0,0]\r\n# b\rU01:%x[1,0]\rB\r\n"])
    def test_template_line_ends_round_trip(self, tmp_path, text):
        # A path is read with universal newlines, a stream as is: both must give the
        # templates the model was trained with.
        seqs = [Sequence(tokens=[("b",), ("a",)], gold=["Y", "X"])]
        model = build_model(seqs, text, n_columns=1)
        model.weights = np.arange(1.0, len(model.weights) + 1)
        path, out = tmp_path / "m.model", io.StringIO()
        save_model(model, path)
        save_model(model, out)
        for loaded in (load_model(path), load_model(io.StringIO(out.getvalue()))):
            assert loaded.templates == model.templates
            assert loaded.index.raw_strings == model.index.raw_strings
            assert loaded.weights.tolist() == model.weights.tolist()

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_other_line_breaks_in_strings_round_trip(self, tmp_path, char):
        # Only "\n", "\r\n" and a lone "\r" end a model file's line.
        seqs = [Sequence(tokens=[("a" + char + "b",), ("a",)], gold=["X" + char, "Y"])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", n_columns=1)
        model.weights = np.arange(1.0, len(model.weights) + 1)
        path, out = tmp_path / "m.model", io.StringIO()
        save_model(model, path)
        save_model(model, out)
        for loaded in (load_model(path), load_model(io.StringIO(out.getvalue()))):
            assert loaded.tagset.tags == model.tagset.tags
            assert loaded.index.raw_strings == ["U00=a" + char + "b", "U00=a"]
            assert loaded.weights.tolist() == model.weights.tolist()

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    @pytest.mark.parametrize("where", ["raw string", "tag"])
    def test_string_that_would_break_its_line_rejected(self, tmp_path, char, where):
        word, tag = ("a" + char, "X") if where == "raw string" else ("a", "X" + char)
        seqs = [Sequence(tokens=[(word,)], gold=[tag])]
        model = build_model(seqs, "U00:%x[0,0]\n", n_columns=1)
        bad = "U00=" + word if where == "raw string" else tag
        path, out = tmp_path / "m.model", io.StringIO()
        for target in (path, out):
            with pytest.raises(ValueError, match="^cannot save a model whose %s %s holds"
                               % (where, re.escape(repr(bad)))):
                save_model(model, target)
        assert not path.exists() and out.getvalue() == ""

    def test_empty_tag_rejected_on_save(self):
        model = build_model([Sequence(tokens=[("a",), ("b",)], gold=["", "X"])],
                            "U00:%x[0,0]\n", n_columns=1)
        out = io.StringIO()
        with pytest.raises(ValueError, match="^cannot save a model with an empty tag$"):
            save_model(model, out)
        assert out.getvalue() == ""

    def test_zero_weights_not_stored(self, rng, tmp_path):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        for line in path.read_text().splitlines():
            if line.startswith(("E\t", "T\t")):
                assert float(line.rsplit("\t", 1)[1]) != 0.0

    def test_version_mismatch(self, rng, tmp_path):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "version\t99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)

    def test_corrupt_line(self, rng, tmp_path):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        with open(path, "a") as f:
            f.write("E\tonly-two-fields\n")
        with pytest.raises(ModelFileError, match="corrupt"):
            load_model(path)

    def test_duplicate_feature(self, rng, tmp_path):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text().splitlines()
        dup = next(l for l in text if l.startswith("E\t"))
        path.write_text("\n".join(text + [dup]) + "\n")
        with pytest.raises(ModelFileError, match="duplicate"):
            load_model(path)

    def test_bad_weight_value(self, rng, tmp_path):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        with open(path, "a") as f:
            f.write("E\traw\tt0\tnot-a-number\n")
        with pytest.raises(ModelFileError, match="weight"):
            load_model(path)


def _saved_text(model):
    out = io.StringIO()
    save_model(model, out)
    return out.getvalue()


def _first_feature(lines):
    """List index of the first feature line of a saved model file's lines."""
    return lines.index("templates-end") + 1


class TestModelFileFaults:
    """Each fault the loader rejects, named with its line number."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("E\tU00=w0\tnope\t1.0", "unknown tag 'nope'"),
            ("T\tt0\tnope\t1.0", "unknown tag pair 't0'/'nope'"),
            ("T\tnope\tt1\t1.0", "unknown tag pair 'nope'/'t1'"),
            ("E\tU00=w0\tt0\tinf", "non-finite weight 'inf'"),
            ("T\tt0\tt1\tnan", "non-finite weight 'nan'"),
            ("X\tU00=w0\tt0\t1.0", "corrupt feature line"),
            ("E\tU00=w0\tt0\t1.0\textra", "corrupt feature line"),
        ],
    )
    def test_bad_feature_line_names_its_line(self, rng, line, message):
        model, _ = _toy_model(rng)
        lines = _saved_text(model).splitlines()
        at = _first_feature(lines) + 3  # list index of the new line
        lines.insert(at, line)
        with pytest.raises(ModelFileError, match="^line %d: %s" % (at + 1, re.escape(message))):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_transition_line_without_transitions(self, rng):
        seqs = [Sequence(tokens=[("a",), ("b",)], gold=["t0", "t1"])]
        model = build_model(seqs, "U00:%x[0,0]\n", n_columns=1)
        model.weights[:] = 1.0
        text = _saved_text(model) + "T\tt0\tt1\t0.5\n"
        lineno = len(text.splitlines())
        with pytest.raises(ModelFileError, match="^line %d: transition feature in a model "
                                                 "without transitions" % lineno):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("keep", [0, 1, 2, 3, 4])
    def test_truncated_header(self, keep):
        header = ["version\t1", "columns\t1", "tags\tt0", "config\t{}", "templates-begin"]
        missing = ["version", "columns", "tags", "config", "templates-begin"][keep]
        text = "".join(line + "\n" for line in header[:keep])
        with pytest.raises(ModelFileError, match="truncated model file: missing '%s' line"
                                                 % missing):
            load_model(io.StringIO(text))

    def test_duplicate_tag(self):
        text = "version\t1\ncolumns\t1\ntags\tt0\tt1\tt0\nconfig\t{}\n"
        with pytest.raises(ModelFileError, match="^line 3: duplicate tag 't0'$"):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("tags", ["\t", "\tt0\t", "\t\tt0"])
    def test_empty_tag(self, tags):
        text = "version\t1\ncolumns\t1\ntags%s\nconfig\t{}\n" % tags
        with pytest.raises(ModelFileError, match="^line 3: empty tag$"):
            load_model(io.StringIO(text))

    def test_template_fault_names_its_file_line(self):
        text = ("version\t1\ncolumns\t1\ntags\tt0\nconfig\t{}\ntemplates-begin\n"
                "# comment\nU00:%x[0,0]\nU01:%x[0,0\ntemplates-end\n")
        with pytest.raises(ModelFileError, match=r"^line 8, column 5: malformed atom"):
            load_model(io.StringIO(text))

    def test_missing_templates_end(self):
        text = "version\t1\ncolumns\t1\ntags\tt0\nconfig\t{}\ntemplates-begin\nU00:%x[0,0]\n"
        with pytest.raises(ModelFileError, match="missing 'templates-end'"):
            load_model(io.StringIO(text))

    def test_duplicate_names_its_line(self, rng):
        model, _ = _toy_model(rng)
        lines = _saved_text(model).splitlines()
        first = _first_feature(lines)
        dup = lines[first + 3]
        # blank lines before and after the repeat must not shift its number
        lines[first + 1 : first + 1] = ["", ""]
        lines += ["", dup, lines[first]]
        message = "line %d: duplicate feature %r" % (len(lines) - 1, "\t".join(dup.split("\t")[:3]))
        with pytest.raises(ModelFileError, match="^" + re.escape(message)):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_line_faults_come_before_duplicates(self, rng):
        model, _ = _toy_model(rng)
        lines = _saved_text(model).splitlines()
        lines += [lines[_first_feature(lines)], "E\tU00=w0\tt0\tbad"]
        with pytest.raises(ModelFileError, match="^line %d: bad weight" % len(lines)):
            load_model(io.StringIO("\n".join(lines) + "\n"))


    def test_lone_carriage_return_counts_as_a_line_end(self, tmp_path):
        # The template block's "\r" ends a line from a path and from a stream alike.
        text = ("version\t1\ncolumns\t1\ntags\tA\nconfig\t{}\ntemplates-begin\n"
                "# a\rU00:%x[0,0]\ntemplates-end\nE\tU00=x\tA\tbad\n")
        path = tmp_path / "m.model"
        path.write_bytes(text.encode())
        for source in (path, io.StringIO(text), io.StringIO(text, newline="")):
            with pytest.raises(ModelFileError, match="^line 9: bad weight 'bad'$"):
                load_model(source)


class TestModelFileLayout:
    def test_blank_lines_and_crlf_in_body(self, rng):
        model, _ = _toy_model(rng)
        lines = _saved_text(model).splitlines()
        start = _first_feature(lines)
        lines[start:start] = [""]
        lines.insert(start + 5, "")
        lines.append("")
        for text in ("\r\n".join(lines) + "\r\n", "\n".join(lines) + "\n\n\n"):
            loaded = load_model(io.StringIO(text))
            assert loaded.weights.tobytes() == model.weights.tobytes()
            assert loaded.template_text == model.template_text

    @pytest.mark.parametrize("chars", [1, 2, 7, 64])
    def test_lines_cut_by_reader_blocks(self, rng, tmp_path, monkeypatch, chars):
        model, _ = _toy_model(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        monkeypatch.setattr(dataio, "_READ_CHARS", chars)
        assert load_model(path).weights.tobytes() == model.weights.tobytes()
        crlf = path.read_text().replace("\n", "\r\n")  # a cut may fall between \r and \n
        assert load_model(io.StringIO(crlf)).weights.tobytes() == model.weights.tobytes()
        lines = path.read_text().splitlines()
        lines.insert(len(lines) - 2, "E\tcut\tt0")
        with pytest.raises(ModelFileError, match="^line %d: corrupt" % (len(lines) - 2)):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_streaming_memory(self, tmp_path):
        """On a dense model of a few MB, loading holds at most twice the file
        size and saving at most the file size (tracemalloc peaks)."""
        K, rows = 20, 4000
        seqs = [Sequence(tokens=[("w%d" % i,) for i in range(rows)],
                         gold=["t%d" % (i % K) for i in range(rows)])]
        model = build_model(seqs, "U00:%x[0,0]\nB\n", n_columns=1)
        model.weights[:] = np.random.default_rng(3).normal(size=model.index.n_features)
        path = tmp_path / "dense.model"
        save_model(model, path)
        size = path.stat().st_size
        assert size > 2_500_000
        tracemalloc.start()
        try:
            loaded = load_model(path)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            save_model(loaded, tmp_path / "again.model")
            save_peak = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()
        assert load_peak <= 2 * size
        assert save_peak <= size

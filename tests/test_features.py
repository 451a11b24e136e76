import re
from dataclasses import astuple, fields

import numpy as np
import pytest

from sapo import (
    ExtractionError,
    Sequence,
    TemplateError,
    build_lattice,
    build_model,
    compile_templates,
    extract_features,
    score_sequence,
)
from sapo.features import (Model, Tagset, build_feature_index, compile_corpus,
                           position_features)

from conftest import random_word_model, word_corpus


class TestCompileTemplates:
    def test_minimal_unigram(self):
        (tpl,) = compile_templates("U00:%x[0,0]")
        assert tpl.name == "U00"
        assert not tpl.transition
        assert [(a.row, a.col, a.numeric) for a in tpl.atoms] == [(0, 0, False)]

    def test_bigram_conjunction(self):
        (tpl,) = compile_templates("U01:%x[-1,0]/%x[0,0]")
        assert [(a.row, a.col) for a in tpl.atoms] == [(-1, 0), (0, 0)]

    def test_unclosed_bracket_is_syntax_error(self):
        with pytest.raises(TemplateError, match=r"line 1, column \d+"):
            compile_templates("U02:%x[0")

    def test_comments_and_blank_lines_skipped(self):
        tpls = compile_templates("# header\n\nU00:%x[0,0]\n  \n# tail\n")
        assert [t.name for t in tpls] == ["U00"]

    def test_only_newline_ends_a_line(self):
        with pytest.raises(TemplateError, match=r"^line 1, column 5: malformed atom "
                                                r"'%x\[0,0\]\\x0cU01:%x\[0,0\]'$"):
            compile_templates("U00:%x[0,0]\x0cU01:%x[0,0]")
        with pytest.raises(TemplateError, match=r"^line 3, column 5: malformed atom 'bad'$"):
            compile_templates("# a\x1cb\x85c\u2028d\nU00:%x[0,0]\nU01:bad\n")
        crlf = compile_templates("U00:%x[0,0]\r\n\r\n# c\r\nB\r\n")
        assert crlf == compile_templates("U00:%x[0,0]\n\n# c\nB\n")

    def test_carriage_return_ends_a_line_as_in_a_template_file(self, tmp_path):
        # `sapo train --templates` reads the file with universal newlines.
        path = tmp_path / "t.txt"
        for text in ("U00:%x[0,0]\rU01:%x[0,0]", "# a\rU01:%x[0,0]\nU00:%x[0,0]\nB\n",
                     "U00:%x[0,0]\r\rB\r\nU01:%x[1,0]\r"):
            path.write_bytes(text.encode())
            with open(path, encoding="utf-8") as f:
                assert compile_templates(text) == compile_templates(f.read())
        assert [t.name for t in compile_templates("U00:%x[0,0]\rU01:%x[0,0]")] == ["U00", "U01"]
        with pytest.raises(TemplateError, match=r"^line 3, column 5: malformed atom 'bad'$"):
            compile_templates("U00:%x[0,0]\r\nB\rU01:bad\n")

    def test_transition_line(self):
        tpls = compile_templates("U00:%x[0,0]\nB\n")
        assert [t.transition for t in tpls] == [False, True]

    def test_observation_dependent_transition_rejected(self):
        with pytest.raises(TemplateError, match="transition"):
            compile_templates("B00:%x[0,0]")

    def test_duplicate_name_rejected(self):
        with pytest.raises(TemplateError, match="duplicate"):
            compile_templates("U00:%x[0,0]\nU00:%x[1,0]\n")

    def test_value_atom(self):
        (tpl,) = compile_templates("V00:%v[0,1]")
        assert tpl.atoms[0].numeric

    def test_two_value_atoms_rejected(self):
        with pytest.raises(TemplateError, match="value atom"):
            compile_templates("V00:%v[0,1]/%v[0,2]")

    @pytest.mark.parametrize("row", [2**31, -2**31, 2**63 - 1, 10**20])
    def test_row_offset_out_of_range_rejected(self, row):
        message = "line 2, column 13: row offset %d is outside (-2**31, 2**31)" % row
        with pytest.raises(TemplateError, match="^%s$" % re.escape(message)):
            compile_templates("B\nU00:%%x[0,0]/%%x[%d,0]" % row)

    def test_row_offset_range_bounds_accepted(self):
        (tpl,) = compile_templates("U00:%%x[%d,0]/%%x[%d,0]" % (2**31 - 1, 1 - 2**31))
        assert [a.row for a in tpl.atoms] == [2**31 - 1, 1 - 2**31]

    def test_deterministic(self):
        text = "U00:%x[0,0]\nU01:%x[-2,0]/%x[2,0]\nB\n"
        assert compile_templates(text) == compile_templates(text)

    @pytest.mark.parametrize("text, message", [
        ("1x:%x[0,0]", r"line 1, column 1: invalid template id '1x'"),
        ("U00:\n", r"line 1, column 5: malformed atom ''"),  # a template with no atoms
    ])
    def test_malformed_template_rejected(self, text, message):
        with pytest.raises(TemplateError, match="^%s$" % message):
            compile_templates(text)


class TestDataTypes:
    @pytest.mark.parametrize("make, error, message", [
        (lambda m: Sequence([]), ValueError, r"sequence must contain at least one token"),
        (lambda m: Sequence([("a",)], ["A", "B"]), ValueError,
         r"gold length 2 does not match token count 1"),
        (lambda m: Tagset(["a", "a"]), ValueError, r"duplicate tags in tagset"),
        (lambda m: Tagset.from_corpus([Sequence([("a",)])]), ValueError,
         r"cannot build a tagset from unlabeled data"),
        (lambda m: m.index.add_raw("U00=zzz"), RuntimeError, r"feature index is frozen"),
        (lambda m: Model(m.tagset, m.index, m.templates, np.zeros(5), 1), ValueError,
         r"weight vector length 5 does not match feature count 4"),
    ], ids=["empty-sequence", "gold-length", "duplicate-tag", "unlabeled-tagset",
            "frozen-index", "weight-length"])
    def test_rejects_an_inconsistent_value(self, make, error, message):
        model = build_model(word_corpus([("a b", "A B")]), "U00:%x[0,0]\n", 1)
        with pytest.raises(error, match="^%s$" % message):
            make(model)


def _single_template_model(words_tags, template_text="U00:%x[0,0]\nB\n"):
    seqs = word_corpus(words_tags)
    return build_model(seqs, template_text, 1), seqs


class TestExtraColumn:
    def test_column_past_the_model_compiles_as_absent(self, rng):
        # A trailing column, as a decode input's gold tags, is no column of the data.
        templates = "U00:%x[0,0]\nU01:%x[-1,0]/%x[1,0]\nB\n"
        model, seqs = random_word_model(rng, template_text=templates)
        wide = [Sequence([token + ("1.5",) for token in s.tokens], s.gold) for s in seqs]
        for labeled in (False, True):
            for a, b in zip(compile_corpus(model, seqs, labeled),
                            compile_corpus(model, wide, labeled), strict=True):
                for f, x, y in zip(fields(a), astuple(a), astuple(b)):
                    if isinstance(x, np.ndarray):
                        assert x.dtype == y.dtype and np.array_equal(x, y), f.name
                    else:
                        assert x == y, f.name


class TestExtractFeatures:
    def test_length_one_sequence(self):
        model, seqs = _single_template_model([("the", "DT")])
        feats = extract_features(seqs[0], [0], model.templates, model.index)
        assert len(feats) == 1  # one emission, no transition without a predecessor
        assert feats[0][1] == 1.0

    def test_repeated_token_accumulates(self):
        model, seqs = _single_template_model([("x x", "A A")])
        feats = extract_features(seqs[0], [0, 0], model.templates, model.index)
        by_id = dict(feats)
        # one emission feature at value 2.0 plus the A->A transition
        assert sorted(by_id.values()) == [1.0, 2.0]

    def test_matches_naive_per_position_oracle(self, rng):
        # independent oracle: apply the two templates by hand per position,
        # then sum by (raw string, tag)
        vocab = ["a", "b", "c", "d"]
        tags = ["X", "Y", "Z"]
        for _ in range(25):
            model, seqs = random_word_model(rng, n_seqs=4, vocab=vocab, tags=tags)
            seq = seqs[0]
            T = len(seq)
            y = [int(rng.integers(3)) for _ in range(T)]
            words = [t[0] for t in seq.tokens]

            expected = {}
            for t in range(T):
                cur = words[t]
                prev = words[t - 1] if t - 1 >= 0 else "_B-1_"
                for raw in ("U00=" + cur, "U01=" + prev):
                    rid = model.index.lookup_raw(raw)
                    assert rid is not None
                    fid = rid * 3 + y[t]
                    expected[fid] = expected.get(fid, 0.0) + 1.0
            for t in range(1, T):
                fid = model.index.transition_base + y[t - 1] * 3 + y[t]
                expected[fid] = expected.get(fid, 0.0) + 1.0

            got = extract_features(seq, y, model.templates, model.index)
            assert got == sorted(expected.items())

    def test_boundary_symbols_fire(self):
        model, seqs = _single_template_model([("w", "A")], "U00:%x[-2,0]\nU01:%x[1,0]\n")
        assert model.index.lookup_raw("U00=_B-2_") is not None
        assert model.index.lookup_raw("U01=_B+1_") is not None
        feats = extract_features(seqs[0], [0], model.templates, model.index)
        assert len(feats) == 2

    def test_unknown_column_reference(self):
        # the column check fires as soon as extraction reads the data
        # (build_model already scans, so constructing it is the trigger)
        with pytest.raises(TemplateError, match="column"):
            _single_template_model([("w", "A")], "U00:%x[0,5]\n")

    def test_numeric_value_template(self):
        seqs = [Sequence(tokens=[("sig", "2.5"), ("sig", "0.5")], gold=["A", "B"])]
        model = build_model(seqs, "U00:%x[0,0]\nV00:%v[0,1]\n", 2)
        feats = extract_features(seqs[0], [0, 1], model.templates, model.index)
        vals = dict(feats)
        rid = model.index.lookup_raw("V00=")
        assert vals[rid * 2 + 0] == 2.5
        assert vals[rid * 2 + 1] == 0.5

    def test_non_numeric_value_cell_errors(self):
        seqs = [Sequence(tokens=[("sig", "oops")], gold=["A"])]
        with pytest.raises(TemplateError, match="non-numeric"):
            build_model(seqs, "V00:%v[0,1]\n", 2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_cell_errors(self, cell):
        seqs = [Sequence(tokens=[("sig", "1.5"), ("sig", cell)], gold=["A", "B"])]
        with pytest.raises(TemplateError, match="template V00: non-finite cell %r" % cell):
            build_model(seqs, "U00:%x[0,0]\nV00:%x[0,0]/%v[0,1]\n", 2)

    def test_length_mismatch_and_bad_tag(self):
        model, seqs = _single_template_model([("a b", "A B")])
        with pytest.raises(ExtractionError):
            extract_features(seqs[0], [0], model.templates, model.index)
        with pytest.raises(ExtractionError):
            extract_features(seqs[0], [0, 9], model.templates, model.index)

    def test_tagging_of_another_length_rejected_as_path_score_rejects_it(self):
        model, seqs = _single_template_model([("a b", "A B")])
        message = r"^taggings of lengths \[1\] for sequences of lengths \[2\]$"
        with pytest.raises(ExtractionError, match=message):
            extract_features(seqs[0], [0], model.templates, model.index)
        with pytest.raises(ExtractionError, match=message):
            score_sequence(model, seqs[0], [0])

    def test_token_of_another_width_rejected(self):
        model, _ = _single_template_model([("a", "A")])
        seqs = [Sequence([("a",)]), Sequence([("a",), ("b", "c")])]
        with pytest.raises(ExtractionError,
                           match=r"^sequence 1 has a token of 2 columns, expected 1$"):
            compile_corpus(model, seqs)

    def test_unseen_features_silently_dropped(self):
        model, _ = _single_template_model([("a", "A")])
        unseen = Sequence(tokens=[("zzz",)], gold=["A"])
        assert extract_features(unseen, [0], model.templates, model.index) == []

    def test_canonical_form_sorted_unique(self, rng):
        model, seqs = random_word_model(rng)
        for seq in seqs:
            y = [int(rng.integers(3)) for _ in range(len(seq))]
            feats = extract_features(seq, y, model.templates, model.index)
            ids = [fid for fid, _ in feats]
            assert ids == sorted(set(ids))
            assert all(v != 0.0 for _, v in feats)

    def test_frozen_index_reproduces_scan(self, rng):
        model, seqs = random_word_model(rng, randomize=False)
        first = [
            extract_features(s, [0] * len(s), model.templates, model.index) for s in seqs
        ]
        second = [
            extract_features(s, [0] * len(s), model.templates, model.index) for s in seqs
        ]
        assert first == second


class TestScoreSequence:
    def test_zero_weights(self):
        model, seqs = _single_template_model([("a b", "A B")])
        assert score_sequence(model, seqs[0], [0, 1]) == 0.0

    def test_single_fired_feature(self):
        model, seqs = _single_template_model([("a", "A")], "U00:%x[0,0]\n")
        rid = model.index.lookup_raw("U00=a")
        model.weights[rid * 1 + 0] = 1.5
        assert score_sequence(model, seqs[0], [0]) == 1.5

    def test_path_decomposition_identity(self, rng):
        # oracle: sum of lattice emission and transition entries along y
        for _ in range(20):
            model, seqs = random_word_model(rng)
            seq = seqs[int(rng.integers(len(seqs)))]
            y = [int(rng.integers(3)) for _ in range(len(seq))]
            lat = build_lattice(model, seq)
            manual = sum(lat.emit[t, y[t]] for t in range(len(y)))
            manual += sum(lat.trans[y[t - 1], y[t]] for t in range(1, len(y)))
            assert score_sequence(model, seq, y) == pytest.approx(manual, abs=1e-9)

import csv
import hashlib
import io
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from sapo import TemplateError, compile_templates, load_model
from sapo.cli import main
from sapo.training import ALGORITHMS, TrainConfig

TEMPLATES = "U00:%x[0,0]\nU01:%x[-1,0]\nB\n"


@pytest.fixture
def workdir(tmp_path):
    tpl = tmp_path / "templates.txt"
    tpl.write_text(TEMPLATES)
    train = tmp_path / "train.conll"
    assert main([
        "generate", "--out", str(train), "--count", "40", "--tags", "3",
        "--vocab", "8", "--mean-length", "4", "--seed", "11", "--separability", "0.6",
    ]) == 0
    return tmp_path


def _train(workdir, *extra, algo="sapo", epochs="2"):
    model = workdir / "model.txt"
    curves = workdir / "curves.csv"
    code = main([
        "train", "--algo", algo, "--train", str(workdir / "train.conll"),
        "--templates", str(workdir / "templates.txt"), "--epochs", epochs,
        "--seed", "1", "--model-out", str(model), "--curves", str(curves), *extra,
    ])
    return code, model, curves


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.conll", tmp_path / "b.conll"
        args = ["generate", "--count", "100", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args,sha256", [
        ("--seed 1", "e898e4b6f3827523f86f94cda57a3d19f2f93556437a37769c3e6803ab8e493c"),
        ("--seed 7 --count 200",
         "9e40f85799a5400bdd4698593a340fca89289f6a33d3b60e6818037be54fa9f7"),
        ("--seed 2024 --tags 45 --vocab 450 --count 60 --separability 0.9",
         "bb736ef5e811f795395a072e9442e9479278af9e6d5b58b4bf90d36a9c91e1af"),
        ("--seed 3 --tags 2 --vocab 3 --mean-length 1.5 --count 80 --separability 0",
         "9e521d2c6266bac2a93199fa6adb3bf989d02080a4ca4c4b7c434c121cd71889"),
    ])
    def test_pinned_bytes(self, tmp_path, args, sha256):
        # The corpus a seed gives must not change with the sampler's implementation.
        out = tmp_path / "g.conll"
        assert main(["generate", "--out", str(out), *args.split()]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_bad_parameters(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x"), "--tags", "1"]) == 1

    @pytest.mark.parametrize("mean", ["inf", "nan"])
    def test_non_finite_mean_length_rejected(self, tmp_path, capsys, mean):
        out = tmp_path / "x"
        assert main(["generate", "--out", str(out), "--mean-length", mean]) == 1
        assert capsys.readouterr().err == "error: T_mean must be finite, got %s\n" % mean
        assert not out.exists()


def _overflowing_model(workdir):
    # Every weight 1.7e308: each is finite, so the model saves and loads, but
    # the emission scores overflow.
    code, model, _ = _train(workdir)
    assert code == 0
    lines = [line.rsplit("\t", 1)[0] + "\t1.7e308" if line[:2] in ("E\t", "T\t") else line
             for line in model.read_text().splitlines()]
    model.write_text("\n".join(lines) + "\n")
    return model


class TestTrain:
    def test_smoke_run_writes_artifacts(self, workdir, capsys):
        code, model, curves = _train(workdir)
        assert code == 0
        assert model.exists() and curves.exists()
        lines = curves.read_text().splitlines()
        assert lines[0] == "epoch,objective,heldout_metric,w_complexity,epoch_seconds"
        assert len(lines) == 3
        assert capsys.readouterr().out.startswith("train ok:")

    def test_all_algorithms_smoke(self, workdir):
        for algo in ALGORITHMS:
            extra = ("--n", "3") if algo in ("sapo", "mira-nbest", "mira-nbest-avg") else ()
            code, _, _ = _train(workdir, *extra, algo=algo, epochs="1")
            assert code == 0, algo
        code, _, _ = _train(workdir, "--search", "beam", "--beam", "4", epochs="1")
        assert code == 0

    def test_inapplicable_flag_combo(self, workdir, capsys):
        code, _, _ = _train(workdir, "--n", "5", algo="perc")
        assert code == 1
        assert "--n is not applicable" in capsys.readouterr().err

    # flag -> (value, the algorithms that accept it)
    APPLICABLE = {
        "--n": ("3", {"sapo", "mira-nbest", "mira-nbest-avg"}),
        "--search": ("beam", {"sapo", "mira-nbest", "mira-nbest-avg"}),
        "--beam": ("4", {"sapo", "mira-nbest", "mira-nbest-avg"}),
        "--lr": ("0.05", {"sapo", "crf-sgd"}),
        "--l2": ("0.5", {"sapo", "crf-sgd"}),
        "--lr-decay": ("0.9", {"sapo", "crf-sgd"}),
        "--mira-c": ("1.0", {"mira", "mira-avg", "mira-nbest", "mira-nbest-avg"}),
    }

    @pytest.mark.parametrize("flag", sorted(APPLICABLE))
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_flag_applicability_matrix(self, workdir, capsys, algo, flag):
        value, algos = self.APPLICABLE[flag]
        code, _, _ = _train(workdir, flag, value, algo=algo, epochs="1")
        err = capsys.readouterr().err
        if algo in algos:
            assert code == 0, err
        else:
            assert code == 1
            assert err == "error: %s is not applicable to --algo %s\n" % (flag, algo)

    @pytest.mark.parametrize("algo,flags,named", [
        ("perc", ["--mira-c", "1", "--lr", "0.1", "--search", "beam"], "--search"),
        ("crf-sgd", ["--mira-c", "1", "--beam", "4", "--n", "2"], "--n"),
        ("mira", ["--lr-decay", "0.9", "--beam", "4"], "--beam"),
        ("mira-nbest", ["--mira-c", "1", "--l2", "0.5", "--lr", "0.1"], "--lr"),
    ])
    def test_first_inapplicable_flag_named(self, workdir, capsys, algo, flags, named):
        code, _, _ = _train(workdir, *flags, algo=algo)
        assert code == 1
        assert capsys.readouterr().err == "error: %s is not applicable to --algo %s\n" % (
            named, algo)

    @pytest.mark.parametrize("algo", ["crf-sgd", "sapo"])
    @pytest.mark.parametrize("l2", ["20", "40"])
    def test_non_positive_shrink_factor_rejected(self, tmp_path, capsys, algo, l2):
        # 20 sequences: lr*l2/|S| = 1 or 2, i.e. a shrink factor of 0 or -1
        data = tmp_path / "train.conll"
        assert main(["generate", "--out", str(data), "--count", "20", "--seed", "3"]) == 0
        tpl = tmp_path / "templates.txt"
        tpl.write_text(TEMPLATES)
        code = main(["train", "--algo", algo, "--train", str(data), "--templates", str(tpl),
                     "--epochs", "1", "--lr", "1", "--l2", l2])
        assert code == 1
        err = capsys.readouterr().err
        assert "shrink factor 1 - lr*l2/|S| = 1 - 1.0*%s.0/20" % l2 in err

    def test_non_finite_value_cell_rejected(self, tmp_path, capsys):
        data = tmp_path / "train.conll"
        data.write_text("a\t0.5\tX\nb\tnan\tY\n\nb\t2\tY\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]/%v[0,1]\n")
        code = main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "1"])
        assert code == 1
        assert "template U00: non-finite cell 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["perc", "sapo", "crf-sgd", "mira"])
    def test_sample_without_features_trains(self, tmp_path, algo):
        # The second sequence's only value is 0, so no feature fires on it and
        # its update term (E[F] minus the oracle's, both empty) is empty.
        data = tmp_path / "train.conll"
        data.write_text("a 1 X\nb 2 Y\n\nb 0 Y\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%v[0,1]\n")
        code = main(["train", "--algo", algo, "--train", str(data), "--templates", str(tpl),
                     "--epochs", "2", "--model-out", str(tmp_path / "m.txt")])
        assert code == 0

    @pytest.mark.parametrize("clip", ["inf", "1"])
    def test_contradictory_mira_candidates_train(self, tmp_path, clip):
        # Candidates XX and YY of "a a"/"X Y" have opposite dF: a singular dual, and
        # with C = inf an unbounded one (tests/test_training.py, TestMiraNbest).
        data, model = tmp_path / "train.conll", tmp_path / "m.txt"
        data.write_text("a X\na Y\n\nb X\n\nc Y\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]\n")
        code = main(["train", "--algo", "mira-nbest", "--n", "4", "--mira-c", clip,
                     "--train", str(data), "--templates", str(tpl), "--epochs", "3",
                     "--model-out", str(model)])
        assert code == 0
        assert np.isfinite(load_model(str(model)).weights).all()

    @pytest.mark.parametrize("clip", ["inf", "1"])
    @pytest.mark.parametrize("algo", ["mira", "mira-nbest", "mira-avg"])
    def test_subnormal_mira_difference_trains(self, tmp_path, capsys, algo, clip):
        # dF = (1e-320, -1e-320) is nonzero, but its Gram diagonal underflows to 0.
        data, model = tmp_path / "train.conll", tmp_path / "m.txt"
        data.write_text("a 1e-320 X\n\na 1e-320 Y\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%v[0,1]\n")
        assert main(["train", "--algo", algo, "--mira-c", clip, "--train", str(data),
                     "--templates", str(tpl), "--epochs", "2", "--model-out", str(model)]) == 0
        assert np.isfinite(load_model(str(model)).weights).all()

    @pytest.mark.parametrize("algo", ["perc", "mira", "mira-nbest"])
    def test_overflowing_scores_exit_3(self, tmp_path, capsys, algo):
        # Weights of +-1e308 are finite, but weight x value overflows: the perceptron's
        # objective and MIRA's Gram matrix are not finite.
        data, model = tmp_path / "train.conll", tmp_path / "m.txt"
        data.write_text("a 1e308 X\nb 1e308 Y\n\nb 1e308 Y\na 1e308 X\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
        code = main(["train", "--algo", algo, "--train", str(data), "--templates", str(tpl),
                     "--epochs", "3", "--model-out", str(model)])
        assert code == 3
        assert re.fullmatch(r"error: non-finite [^\n]* sequence 0 in epoch 1\n",
                            capsys.readouterr().err)
        assert not model.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["sapo", "crf-sgd"])
    def test_overflowing_update_names_its_sample(self, tmp_path, capsys, algo):
        # Seed 1 visits sequence 0 and then 1; the update of sequence 1 overflows a weight.
        data, model = tmp_path / "train.conll", tmp_path / "m.txt"
        data.write_text("a 1e308 X\nb 1e308 Y\n\nb 1e308 Y\na 1e308 X\n\n"
                        "a 1 X\nb 1 Y\n\nb 1 Y\na 1 X\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
        code = main(["train", "--algo", algo, "--train", str(data), "--templates", str(tpl),
                     "--epochs", "3", "--seed", "1", "--model-out", str(model)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: non-finite weights detected after sample 1 in epoch 1\n")
        assert not model.exists()

    def test_overflowing_heldout_scores_exit_3(self, tmp_path, capsys):
        # Finite weights and training scores, but held-out emissions of +-1e308
        # overflow when summed along a path.
        data, held, tpl = tmp_path / "train.conll", tmp_path / "held.conll", tmp_path / "t.txt"
        data.write_text("a 1 X\nb 1 Y\n\nb 1 Y\na 1 X\n\na 1 X\na 1 X\nb 1 Y\n")
        held.write_text("a 1 X\n\na 1e308 X\nb 1e308 Y\n")
        tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
        code = main(["train", "--algo", "perc", "--train", str(data), "--heldout", str(held),
                     "--templates", str(tpl), "--epochs", "3"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: non-finite held-out scores of sequence 1 in epoch 1\n")

    def test_corpus_without_features_rejected(self, tmp_path, capsys):
        data, curves = tmp_path / "train.conll", tmp_path / "curves.csv"
        data.write_text("a 0 X\nb 0 Y\n\nb 0 Y\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%v[0,1]\n")
        code = main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "1", "--curves", str(curves)])
        assert code == 1
        assert "no template fires a feature on the training corpus" in capsys.readouterr().err
        assert not curves.exists()

    def test_heldout_column_count_mismatch_rejected(self, tmp_path, capsys):
        data, held = tmp_path / "train.conll", tmp_path / "held.conll"
        data.write_text("a\tX\nb\tY\n\nb\tY\n")
        held.write_text("a\tz\tX\nb\tz\tY\n")  # two observation columns against one
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]\n")
        code = main(["train", "--algo", "perc", "--train", str(data), "--heldout", str(held),
                     "--templates", str(tpl), "--epochs", "1"])
        assert code == 1
        assert ("held-out sequence 0 has a token of 2 columns; the training corpus has 1"
                in capsys.readouterr().err)

    def test_heldout_tag_unseen_in_training_counts_as_an_error(self, tmp_path, capsys):
        data, held = tmp_path / "train.conll", tmp_path / "held.conll"
        data.write_text("a\tX\nb\tY\n\nb\tY\n")
        held.write_text("a\tX\nb\tZ\n")
        tpl, curves = tmp_path / "templates.txt", tmp_path / "curves.csv"
        tpl.write_text("U00:%x[0,0]\n")
        code = main(["train", "--algo", "perc", "--train", str(data), "--heldout", str(held),
                     "--templates", str(tpl), "--epochs", "1", "--curves", str(curves)])
        assert code == 0
        assert "heldout=0.5000" in capsys.readouterr().out
        assert curves.read_text().splitlines()[1].split(",")[2] == "0.5"

    @pytest.mark.parametrize("train, held, named", [
        ("a X\nb Y\n", "a X\nb Y\n", "training sequence 0 has a malformed BIO tag 'X' at "
                                         "position 0"),
        # The model can predict any training tag, even where the held-out golds are BIO.
        ("a B-N\nb O\n\nb O\na B-N\nc Q\n", "a B-N\nb O\n",
         "training sequence 1 has a malformed BIO tag 'Q' at position 2"),
        ("a B-N\nb O\n", "a B-N\n\nb O\na Z\n",
         "held-out sequence 1 has a malformed BIO tag 'Z' at position 1"),
    ])
    def test_chunk_metric_needs_bio_tags(self, tmp_path, capsys, train, held, named):
        data, heldout, tpl = tmp_path / "train.conll", tmp_path / "held.conll", tmp_path / "t"
        data.write_text(train)
        heldout.write_text(held)
        tpl.write_text("U00:%x[0,0]\n")
        curves = tmp_path / "curves.csv"
        assert main(["train", "--algo", "perc", "--train", str(data), "--heldout", str(heldout),
                     "--templates", str(tpl), "--metric", "chunk-f1", "--curves",
                     str(curves)]) == 1
        assert capsys.readouterr().err == (
            "error: metric chunk-f1 needs O, B-TYPE and I-TYPE tags; %s\n" % named)
        assert not curves.exists()

    def test_chunk_metric_without_heldout_needs_no_bio_tags(self, tmp_path):
        data, tpl = tmp_path / "train.conll", tmp_path / "t"
        data.write_text("a X\nb Y\n")
        tpl.write_text("U00:%x[0,0]\n")
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--metric", "chunk-f1", "--epochs", "1"]) == 0

    @pytest.mark.parametrize("text", ["U00:%x[0,0]\rU01:%x[-1,0]\rB\r",
                                      "# a\rU01:%x[0,0]\nU00:%x[0,0]\nB\n",
                                      "# note\rsecond half\nU00:%x[0,0]\n"])
    def test_template_file_parses_as_in_process(self, workdir, capsys, text):
        (workdir / "templates.txt").write_bytes(text.encode())
        code, model, _ = _train(workdir, algo="perc", epochs="1")
        try:
            templates = compile_templates(text)
        except TemplateError as e:
            assert code == 1 and not model.exists()
            assert capsys.readouterr().err == "error: %s\n" % e
        else:
            assert code == 0 and load_model(str(model)).templates == templates

    @pytest.mark.parametrize("atoms, column", [
        ("%x[99999999999999999999,0]", 5), ("%x[0,0]/%x[9223372036854775807,0]", 13)])
    def test_row_offset_out_of_range_rejected(self, workdir, capsys, atoms, column):
        (workdir / "templates.txt").write_text("B\nU00:%s\n" % atoms)
        code, model, _ = _train(workdir, algo="perc")
        assert code == 1
        assert "error: line 2, column %d: row offset" % column in capsys.readouterr().err
        assert not model.exists()

    def test_non_finite_l2_rejected(self, workdir, capsys):
        code, _, _ = _train(workdir, "--l2", "nan")
        assert code == 1
        assert "l2" in capsys.readouterr().err

    def test_more_flag_combos(self, workdir):
        assert _train(workdir, "--mira-c", "2.0", algo="sapo")[0] == 1
        assert _train(workdir, "--lr", "0.1", algo="mira")[0] == 1
        assert _train(workdir, "--beam", "10", algo="crf-sgd")[0] == 1

    def test_zero_epochs_rejected(self, workdir):
        code, _, _ = _train(workdir, epochs="0")
        assert code == 1

    def test_unknown_flag_rejected(self, workdir):
        code, _, _ = _train(workdir, "--bogus", "1")
        assert code == 1

    def test_missing_train_file(self, tmp_path):
        tpl = tmp_path / "t.txt"
        tpl.write_text(TEMPLATES)
        code = main([
            "train", "--algo", "sapo", "--train", str(tmp_path / "nope.conll"),
            "--templates", str(tpl),
        ])
        assert code == 2

    def test_heldout_and_lr_decay(self, workdir):
        held = workdir / "held.conll"
        assert main([
            "generate", "--out", str(held), "--count", "10", "--tags", "3",
            "--vocab", "8", "--seed", "12",
        ]) == 0
        code, _, curves = _train(workdir, "--heldout", str(held), "--lr-decay", "0.9")
        assert code == 0
        last = curves.read_text().splitlines()[-1].split(",")
        assert last[2] != ""  # held-out metric recorded


class TestDecode:
    def test_self_decode_meets_recorded_accuracy(self, workdir):
        code, model, _ = _train(workdir, epochs="3")
        assert code == 0
        out = workdir / "decoded.conll"
        assert main([
            "decode", "--model", str(model), "--input", str(workdir / "train.conll"),
            "--output", str(out),
        ]) == 0
        import json

        from sapo import load_model, read_conll, token_accuracy

        meta = load_model(model).meta
        gold = read_conll(workdir / "train.conll")
        decoded = read_conll(out)  # last column is the prediction
        acc = token_accuracy(gold, [s.gold for s in decoded.sequences]).value
        assert acc >= meta["train_accuracy"]

    def test_nbest_one_matches_plain_decode(self, workdir):
        code, model, _ = _train(workdir)
        plain = workdir / "plain.conll"
        nbest = workdir / "nbest.conll"
        main(["decode", "--model", str(model), "--input", str(workdir / "train.conll"),
              "--output", str(plain)])
        main(["decode", "--model", str(model), "--input", str(workdir / "train.conll"),
              "--output", str(nbest), "--nbest", "1"])
        plain_tags = [l.split("\t")[-1] for l in plain.read_text().splitlines() if l]
        nbest_tags = [
            l.split("\t")[-1]
            for l in nbest.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert plain_tags == nbest_tags

    def test_nbest_probabilities_sum_to_one(self, workdir):
        code, model, _ = _train(workdir)
        out = workdir / "nb.conll"
        assert main([
            "decode", "--model", str(model), "--input", str(workdir / "train.conll"),
            "--output", str(out), "--nbest", "4",
        ]) == 0
        sums = {}
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                fields = dict(kv.split("=") for kv in line[2:].split())
                sums.setdefault(fields["seq"], 0.0)
                sums[fields["seq"]] += float(fields["prob"])
        assert sums
        for total in sums.values():
            assert abs(total - 1.0) <= 1e-9

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, workdir, capsys, weight):
        code, model, _ = _train(workdir)
        lines = model.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("E\t"))
        lines[i] = "\t".join(lines[i].split("\t")[:3] + [weight])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for extra in ((), ("--nbest", "2")):
            assert main([
                "decode", "--model", str(model), "--input", str(workdir / "train.conll"),
                "--output", str(workdir / "out.conll"), *extra,
            ]) == 2
            assert "line %d: non-finite weight %r" % (i + 1, weight) in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [(), ("--nbest", "3")])
    def test_overflowing_scores_exit_3(self, workdir, capsys, extra):
        model = _overflowing_model(workdir)
        out = workdir / "out.conll"
        capsys.readouterr()
        assert main(["decode", "--model", str(model), "--input", str(workdir / "train.conll"),
                     "--output", str(out), *extra]) == 3
        assert capsys.readouterr().err == "error: non-finite scores of sequence 0\n"
        assert not out.exists()

    def test_tag_holding_a_space_rejected(self, workdir, capsys):
        # The model file holds such a tag, but a decoded file would not read back.
        code, model, _ = _train(workdir)
        assert code == 0
        model.write_text(re.sub(r"(?<=\t)t(\d)(?=[\t\n])", r"t \1", model.read_text()))
        out = workdir / "out.conll"
        capsys.readouterr()
        assert main(["decode", "--model", str(model), "--input", str(workdir / "train.conll"),
                     "--output", str(out)]) == 1
        assert re.fullmatch(r"error: cannot write 't \d' of sequence 0: it holds whitespace, "
                            r"so the file would not read back\n", capsys.readouterr().err)
        assert not out.exists()

    def test_nbest_tag_holding_a_space_rejected(self, tmp_path, capsys):
        # Sequence 0's two best candidates tag it C and D; sequence 1's first is 'A B'.
        model, data, out = tmp_path / "m.txt", tmp_path / "in.conll", tmp_path / "out.conll"
        model.write_text("version\t1\ncolumns\t1\ntags\tC\tD\tA B\nconfig\t{}\n"
                         "templates-begin\nU00:%x[0,0]\ntemplates-end\nE\tU00=w\tC\t2\n"
                         "E\tU00=w\tD\t1\nE\tU00=v\tA B\t3\n")
        data.write_text("w\n\nv\n")
        for extra in ((), ("--nbest", "2")):
            assert main(["decode", "--model", str(model), "--input", str(data),
                         "--output", str(out), *extra]) == 1
            assert capsys.readouterr().err == ("error: cannot write 'A B' of sequence 1: it "
                                               "holds whitespace, so the file would not read back\n")
            assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("version\t", "versio\t", "line 1: expected 'version' header"),
        ("columns\t1\n", "columns\tx\n", "line 2: malformed columns header"),
        ("columns\t1\n", "columns\n", "line 2: malformed columns header"),
        ("tags\tt2\tt1\tt0\n", "tags\n", "line 3: empty tagset"),
        ("config\t{", "config\t{{", "line 4: malformed config JSON"),
        ("templates-begin", "templates-begun", "line 5: expected 'templates-begin'"),
        ("tags\t", "tags\tt1\t", "line 3: duplicate tag 't1'"),
        ("tags\t", "tags\t\t", "line 3: empty tag"),
        ("U01:%x[-1,0]", "U01:%x[-1]", "line 7, column 5: malformed atom '%x[-1]'"),
    ])
    def test_faulty_model_header_rejected(self, workdir, capsys, old, new, message):
        code, model, _ = _train(workdir)
        model.write_text(model.read_text().replace(old, new, 1))
        capsys.readouterr()
        assert main([
            "decode", "--model", str(model), "--input", str(workdir / "train.conll"),
            "--output", str(workdir / "out.conll"),
        ]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_nbest_below_one_rejected(self, workdir, capsys):
        out = workdir / "out.conll"
        capsys.readouterr()
        assert main(["decode", "--model", str(workdir / "none.model"), "--input",
                     str(workdir / "train.conll"), "--output", str(out), "--nbest", "0"]) == 1
        assert capsys.readouterr().err == "error: --nbest must be >= 1\n"
        assert not out.exists()

    def test_missing_model(self, workdir):
        assert main([
            "decode", "--model", str(workdir / "none.model"),
            "--input", str(workdir / "train.conll"), "--output", str(workdir / "x"),
        ]) == 2

    @pytest.mark.parametrize("cell, kind", [("oops", "non-numeric"), ("inf", "non-finite")])
    def test_bad_value_cell_rejected(self, tmp_path, capsys, cell, kind):
        data = tmp_path / "train.conll"
        data.write_text("a\t0.5\tX\nb\t2\tY\n")
        tpl = tmp_path / "templates.txt"
        tpl.write_text("U00:%x[0,0]\nV01:%v[0,1]\nB\n")
        model = tmp_path / "model.txt"
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "1", "--model-out", str(model)]) == 0
        probe = tmp_path / "probe.conll"
        probe.write_text("a\t1\nb\t0\n\nb\t%s\na\t1\n" % cell)
        capsys.readouterr()
        for extra in ((), ("--nbest", "2")):
            assert main(["decode", "--model", str(model), "--input", str(probe),
                         "--output", str(tmp_path / "out.conll"), *extra]) == 1
            assert ("template V01: %s cell %r for %%v atom" % (kind, cell)
                    in capsys.readouterr().err)

    def test_short_sequences_and_unseen_words(self, workdir, tmp_path):
        from sapo import load_model

        code, model, _ = _train(workdir)
        assert code == 0
        probe = tmp_path / "probe.conll"
        words = ["w0", "never-seen", "w1", "zzz", "w2", "w3"]
        blocks = [["zzz"], ["w1"], words, ["never-seen"], words[:2], ["w3"]]
        probe.write_text("\n".join("".join(w + "\n" for w in block) for block in blocks))
        out = tmp_path / "out.conll"
        assert main(["decode", "--model", str(model), "--input", str(probe),
                     "--output", str(out)]) == 0
        got = [[line.split("\t") for line in block.splitlines()]
               for block in out.read_text().strip("\n").split("\n\n")]
        assert [[row[0] for row in block] for block in got] == blocks
        tags = set(load_model(model).tagset)
        assert all(len(row) == 2 and row[1] in tags for block in got for row in block)

    def test_column_mismatch(self, workdir, tmp_path):
        code, model, _ = _train(workdir)
        bad = tmp_path / "bad.conll"
        bad.write_text("a b c d\n")
        assert main([
            "decode", "--model", str(model), "--input", str(bad),
            "--output", str(tmp_path / "x"),
        ]) == 1

    def test_trailing_gold_column_kept_before_the_prediction(self, tmp_path):
        data, tpl, model = tmp_path / "train.conll", tmp_path / "t", tmp_path / "m.txt"
        data.write_text("a X\nb Y\n\nb Y\na X\n")
        tpl.write_text("U00:%x[0,0]\n")
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "2", "--model-out", str(model)]) == 0
        probe, out = tmp_path / "probe.conll", tmp_path / "out.conll"
        probe.write_text("a Y\nb X\n\nb Y\n")  # gold tags that the model does not predict
        assert main(["decode", "--model", str(model), "--input", str(probe),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == b"a\tY\tX\nb\tX\tY\n\nb\tY\tY\n"

    def test_trailing_gold_column_kept_in_every_nbest_candidate(self, tmp_path):
        data, tpl, model = tmp_path / "train.conll", tmp_path / "t", tmp_path / "m.txt"
        data.write_text("a X\nb Y\n\nb Y\na X\n")
        tpl.write_text("U00:%x[0,0]\nB\n")
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "2", "--model-out", str(model)]) == 0
        probe, plain, nbest = tmp_path / "probe.conll", tmp_path / "1.conll", tmp_path / "n.conll"
        probe.write_text("a Y\nb X\n\nb Y\n")
        assert main(["decode", "--model", str(model), "--input", str(probe),
                     "--output", str(plain)]) == 0
        assert main(["decode", "--model", str(model), "--input", str(probe),
                     "--output", str(nbest), "--nbest", "3"]) == 0
        blocks = [block.splitlines() for block in nbest.read_text().strip("\n").split("\n\n")]
        # Sequence 0 has 4 taggings and sequence 1 has 2: three candidates, then two.
        assert [block[0].split(" ")[:2] for block in blocks] == [
            ["#", "seq=%d" % s] for s in (0, 0, 0, 1, 1)]
        for block in blocks:
            rows = [row.split("\t") for row in block[1:]]
            assert [row[:2] for row in rows] in ([["a", "Y"], ["b", "X"]], [["b", "Y"]])
            assert all(len(row) == 3 and row[2] in ("X", "Y") for row in rows)
        # Each sequence's first candidate is its plain decode, gold column and all.
        firsts = ["\n".join(block[1:]) for block in blocks if " rank=1 " in block[0]]
        assert "\n\n".join(firsts) + "\n" == plain.read_text()

    def test_template_reading_past_the_model_columns_rejected(self, tmp_path, capsys):
        # A hand-edited template that reads column 1 of a 1-column model fails on an
        # input that carries a gold column there: that column is no observation.
        data, tpl, model = tmp_path / "train.conll", tmp_path / "t", tmp_path / "m.txt"
        data.write_text("a X\nb Y\n\nb Y\na X\n")
        tpl.write_text("U00:%x[0,0]\n")
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "2", "--model-out", str(model)]) == 0
        model.write_text(model.read_text().replace("U00:%x[0,0]", "U00:%x[0,1]", 1))
        probe, out = tmp_path / "probe.conll", tmp_path / "out.conll"
        probe.write_text("a Y\nb X\n\nb Y\n")
        capsys.readouterr()
        for extra in ((), ("--nbest", "2")):
            assert main(["decode", "--model", str(model), "--input", str(probe),
                         "--output", str(out), *extra]) == 1
            assert capsys.readouterr().err == (
                "error: unknown column reference 1 (data has 1 columns)\n")
            assert not out.exists()


class TestEval:
    def test_identical_files(self, workdir, capsys):
        train = workdir / "train.conll"
        assert main(["eval", "--gold", str(train), "--pred", str(train)]) == 0
        assert "accuracy=1.0000" in capsys.readouterr().out

    def test_chunk_metric_and_per_tag(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("a B-NP\nb I-NP\nc O\n")
        pred.write_text("a B-NP\nb I-NP\nc O\n")
        per_tag = tmp_path / "pertag.csv"
        assert main([
            "eval", "--gold", str(gold), "--pred", str(pred),
            "--metric", "chunk-f1", "--per-tag", str(per_tag),
        ]) == 0
        assert "chunk_f1=1.0000" in capsys.readouterr().out
        assert per_tag.read_text().splitlines()[0] == "type,matched,predicted,gold"

    @pytest.mark.parametrize("gold_text, pred_text, named", [
        ("a B-N\nb O\n\nb O\n", "a B-N\nb O\n\nb X\n",
         "pred: metric chunk-f1 needs O, B-TYPE and I-TYPE tags; predicted sequence 1 has a "
         "malformed BIO tag 'X' at position 0"),
        ("a B-N\nb O\n\nb Y\n", "a B-N\nb O\n\nb X\n",  # the gold tag comes first
         "gold: metric chunk-f1 needs O, B-TYPE and I-TYPE tags; gold sequence 1 has a "
         "malformed BIO tag 'Y' at position 0"),
    ])
    def test_chunk_metric_names_a_non_bio_tag(self, tmp_path, capsys, gold_text, pred_text,
                                              named):
        gold, pred = tmp_path / "gold", tmp_path / "pred"
        gold.write_text(gold_text)
        pred.write_text(pred_text)
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--metric", "chunk-f1"]) == 1
        assert capsys.readouterr().err == "error: %s/%s\n" % (tmp_path, named)

    @pytest.mark.parametrize("metric, text", [
        ("accuracy", 'gold,pred,count\n"B-q""r","B-q""r",1\n"B-x,y","B-x,y",1\nO,"B-x,y",1\n'),
        ("chunk-f1", 'type,matched,predicted,gold\n"q""r",1,1,1\n"x,y",1,2,1\n'),
    ])
    def test_per_tag_csv_reads_back(self, tmp_path, metric, text):
        # A tag can hold a comma or a double quote, but no whitespace.
        gold, pred, per_tag = tmp_path / "gold", tmp_path / "pred", tmp_path / "per_tag.csv"
        gold.write_text('a B-x,y\nb O\n\nc B-q"r\n')
        pred.write_text('a B-x,y\nb B-x,y\n\nc B-q"r\n')
        assert main(["eval", "--gold", str(gold), "--pred", str(pred), "--metric", metric,
                     "--per-tag", str(per_tag)]) == 0
        assert per_tag.read_text() == text
        header, *rows = csv.reader(io.StringIO(per_tag.read_text()))
        assert all(len(row) == len(header) for row in rows)
        tags = {"B-x,y", 'B-q"r', "O"} if metric == "accuracy" else {"x,y", 'q"r'}
        assert {field for row in rows for field in row[:-1]} >= tags


class TestDiagnose:
    def test_exhaustive_tail_mass_zero(self, tmp_path):
        data = tmp_path / "tiny.conll"
        data.write_text("a X\nb Y\nc X\n")  # one sequence, K=2, T=3
        tpl = tmp_path / "t.txt"
        tpl.write_text(TEMPLATES)
        model = tmp_path / "m.model"
        assert main([
            "train", "--algo", "crf-sgd", "--train", str(data), "--templates", str(tpl),
            "--epochs", "2", "--model-out", str(model),
        ]) == 0
        out = tmp_path / "delta.csv"
        assert main([
            "diagnose", "--model", str(model), "--data", str(data),
            "--n-list", "1,8", "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "n,l2_delta,linf_delta,tail_mass"
        last = rows[-1].split(",")
        assert last[0] == "8"
        assert float(last[3]) <= 1e-12

    def test_sample_without_features(self, tmp_path):
        # No feature fires on the second sample and there are no transitions,
        # so its exact and top-n terms are both empty vectors.
        train, data = tmp_path / "train.conll", tmp_path / "data.conll"
        train.write_text("a 1 X\nb 2 Y\n")
        data.write_text("a 1 X\nb 2 Y\n\nb 0 Y\n")
        tpl = tmp_path / "t.txt"
        tpl.write_text("U00:%v[0,1]\n")
        model, out = tmp_path / "m.model", tmp_path / "delta.csv"
        assert main(["train", "--algo", "crf-sgd", "--train", str(train), "--templates", str(tpl),
                     "--epochs", "1", "--model-out", str(model)]) == 0
        assert main(["diagnose", "--model", str(model), "--data", str(data), "--samples", "2",
                     "--n-list", "1,2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()  # header, two samples, their mean
        assert len(rows) == 7 and rows[3:5] == ["1,0.0,0.0,0.5", "2,0.0,0.0,0.0"]

    def test_overflowing_scores_exit_3(self, workdir, capsys):
        model = _overflowing_model(workdir)
        out = workdir / "delta.csv"
        capsys.readouterr()
        assert main(["diagnose", "--model", str(model), "--data", str(workdir / "train.conll"),
                     "--samples", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: non-finite scores of sequence 0\n"
        assert not out.exists()

    @pytest.fixture
    def tiny_weight_model(self, tmp_path):
        # One weight of 1e-200 on a %v column: values of 1e200 give finite scores.
        data, tpl, model = tmp_path / "train.conll", tmp_path / "t.txt", tmp_path / "m.txt"
        data.write_text("a 1 X\n\nb 1 Y\n")
        tpl.write_text("U00:%v[0,1]\n")
        assert main(["train", "--algo", "perc", "--train", str(data), "--templates", str(tpl),
                     "--epochs", "1", "--model-out", str(model)]) == 0
        text = model.read_text()
        model.write_text(text[:text.index("E\t")] + "E\tU00=\tX\t1e-200\n")
        return model

    def test_overflowing_squares_keep_a_finite_norm(self, tmp_path, tiny_weight_model):
        # Differences of about 2.7e199 are finite, their squares are not.
        data, out = tmp_path / "data.conll", tmp_path / "delta.csv"
        data.write_text("a 1e200 X\n")
        assert main(["diagnose", "--model", str(tiny_weight_model), "--data", str(data),
                     "--n-list", "1", "--out", str(out)]) == 0
        n, l2, linf, tail = map(float, out.read_text().splitlines()[1].split(","))
        assert linf > 1e199 and l2 == pytest.approx(math.sqrt(2) * linf, rel=1e-15)

    def test_non_finite_deviation_exit_3(self, tmp_path, capsys, tiny_weight_model):
        # Probe 1's scores are finite, but its gold features, 2 x 1.7e308, are not.
        data, out = tmp_path / "data.conll", tmp_path / "delta.csv"
        data.write_text("a 1 X\n\na 1.7e308 X\nb 1.7e308 X\n")
        capsys.readouterr()
        assert main(["diagnose", "--model", str(tiny_weight_model), "--data", str(data),
                     "--samples", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: non-finite gradient deviation of sequence 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("probes", [6, 7])
    def test_averaged_rows_do_not_overflow(self, tmp_path, tiny_weight_model, probes):
        # Each probe's norms are finite, about 3.7e307 and 2.6e307, but six (seven) of
        # them sum past the largest float; their mean is each probe's value.
        model, data, out = tmp_path / "m308.txt", tmp_path / "data.conll", tmp_path / "d.csv"
        model.write_text(tiny_weight_model.read_text().replace("1e-200", "1e-308"))
        data.write_text("\n".join(["a 1.7e308 X\n"] * probes))
        assert main(["diagnose", "--model", str(model), "--data", str(data), "--samples",
                     str(probes), "--n-list", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == probes + 2 and len(set(rows[1:-1])) == 1
        probe, mean = (list(map(float, row.split(",")[1:3])) for row in (rows[1], rows[-1]))
        assert all(math.isfinite(v) for v in mean) and mean == pytest.approx(probe, rel=1e-15)

    def test_overflowing_sum_of_squares_keeps_a_finite_norm(self, tmp_path, tiny_weight_model):
        # Each squared difference, about 1.7e308, is finite, but their fsum is not.
        model, data, out = tmp_path / "m308.txt", tmp_path / "data.conll", tmp_path / "d.csv"
        model.write_text(tiny_weight_model.read_text().replace("1e-200", "1e-308"))
        data.write_text("a 2.6e154 X\n")
        assert main(["diagnose", "--model", str(model), "--data", str(data),
                     "--n-list", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "1,1.8384776310850235e+154,1.3e+154,0.5"

    @pytest.mark.parametrize("flags, message", [
        (("--n-list", "0,1"), "--n-list values must be >= 1"),
        (("--samples", "0"), "--samples must be >= 1")])
    def test_counts_below_one_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert main(["diagnose", "--model", "x", "--data", "y", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    def test_averaged_block_has_one_row_per_distinct_n(self, tmp_path):
        data, tpl, model = tmp_path / "data.conll", tmp_path / "t", tmp_path / "m.txt"
        data.write_text("a X\nb Y\n\nb Y\na X\nb X\n")
        tpl.write_text(TEMPLATES)
        assert main(["train", "--algo", "crf-sgd", "--train", str(data), "--templates",
                     str(tpl), "--epochs", "1", "--model-out", str(model)]) == 0
        out = tmp_path / "delta.csv"
        assert main(["diagnose", "--model", str(model), "--data", str(data), "--samples", "2",
                     "--n-list", "5,1,5", "--out", str(out)]) == 0
        header, *rows = [row.split(",") for row in out.read_text().splitlines()]
        assert [row[0] for row in rows] == ["1", "5"] * 3  # two probes, then their mean
        for probes, mean in zip(zip(rows[0:2], rows[2:4]), rows[4:]):
            assert [float(v) for v in mean[1:]] == pytest.approx(
                [(float(x) + float(y)) / 2 for x, y in zip(*(p[1:] for p in probes))])

    def test_bad_n_list(self, tmp_path):
        assert main([
            "diagnose", "--model", "x", "--data", "y", "--n-list", "a,b",
            "--out", str(tmp_path / "o"),
        ]) == 1

    def test_l2_flag_removed(self, tmp_path):
        # The report does not depend on L2, so the flag is rejected.
        assert main([
            "diagnose", "--model", "x", "--data", "y", "--l2", "1",
            "--out", str(tmp_path / "o"),
        ]) == 1


def _value_model(tmp_path):
    # Weights of +-1 on a %v column: a value of 1e308 gives finite emission scores
    # whose sums along a path overflow.
    train, tpl, model = tmp_path / "train.conll", tmp_path / "t.txt", tmp_path / "m.txt"
    train.write_text("a 1 X\nb 1 Y\n\nb 1 Y\na 1 X\n\na 1 X\na 1 X\nb 1 Y\n")
    tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
    assert main(["train", "--algo", "perc", "--train", str(train), "--templates", str(tpl),
                 "--epochs", "1", "--model-out", str(model)]) == 0
    return model


class TestDiagnoseProbeOrder:
    @pytest.fixture
    def model(self, tmp_path):
        return _value_model(tmp_path)

    @pytest.mark.parametrize("command", ["diagnose", "decode", "decode --nbest 3",
                                         "train --heldout"])
    def test_first_failing_probe_named_across_length_buckets(self, tmp_path, capsys, model,
                                                             command):
        # Probe 0 (length 2) is finite; probes 1 (length 3) and 2 (length 2) overflow.
        # The length-2 bucket holds probes 0 and 2 and is searched first.
        data, out = tmp_path / "data.conll", tmp_path / "out.txt"
        data.write_text("a 1 X\nb 1 Y\n\na 1e308 X\nb 1e308 Y\na 1e308 X\n\n"
                        "b 1e308 Y\na 1e308 X\n")
        decode = ["--model", model, "--input", data, "--output", out]
        flags = {
            "diagnose": ["--model", model, "--data", data, "--samples", "3", "--out", out],
            "decode": decode,
            "decode --nbest 3": decode + ["--nbest", "3"],
            "train --heldout": ["--algo", "perc", "--train", tmp_path / "train.conll",
                                "--templates", tmp_path / "t.txt", "--heldout", data,
                                "--epochs", "1", "--model-out", out],
        }[command]
        capsys.readouterr()
        assert main([command.split()[0], *map(str, flags)]) == 3
        named = "held-out scores" if command == "train --heldout" else "scores"
        assert capsys.readouterr().err == "error: non-finite %s of sequence 1%s\n" % (
            named, " in epoch 1" if command == "train --heldout" else "")
        assert not out.exists()

    def test_non_finite_emission_off_the_searched_paths(self, tmp_path, capsys, model):
        # A weight of 1.7e308 times a value of -2 puts -inf on tag X, which the top-1
        # path avoids: its searched score is finite, its emission row is not.
        text = model.read_text().replace("E\tU00=a\tX\t1.0\n", "E\tU00=a\tX\t1.7e308\n")
        model.write_text(text)
        data, out = tmp_path / "data.conll", tmp_path / "delta.csv"
        data.write_text("a 1 X\n\na -2 X\n")
        capsys.readouterr()
        assert main(["diagnose", "--model", str(model), "--data", str(data), "--samples", "2",
                     "--n-list", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: non-finite scores of sequence 1\n"
        assert not out.exists()

    def test_validation_error_before_numeric_error(self, tmp_path, capsys, model):
        # Probe 0 overflows, probe 1's gold tag is not in the model: the probes are
        # compiled together, so the validation error comes first.
        data, out = tmp_path / "data.conll", tmp_path / "delta.csv"
        data.write_text("a 1e308 X\nb 1e308 Y\n\na 1 Z\n")
        capsys.readouterr()
        assert main(["diagnose", "--model", str(model), "--data", str(data), "--samples", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tag 'Z' not in tagset\n"
        assert not out.exists()


def _strict_main(argv):
    """``main`` with NumPy's RuntimeWarnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


class TestNoRuntimeWarning:
    """The overflow probes exit 3 with their one-line message and nothing else on
    stderr: the explicit finite checks report what NumPy would warn about."""

    @pytest.mark.parametrize("algo", ["perc", "mira", "mira-nbest"])
    def test_train(self, tmp_path, capsys, algo):
        data, tpl = tmp_path / "train.conll", tmp_path / "templates.txt"
        data.write_text("a 1e308 X\nb 1e308 Y\n\nb 1e308 Y\na 1e308 X\n")
        tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
        assert _strict_main(["train", "--algo", algo, "--train", str(data), "--templates",
                             str(tpl), "--epochs", "3"]) == 3
        assert re.fullmatch(r"error: non-finite [^\n]* sequence 0 in epoch 1\n",
                            capsys.readouterr().err)

    def test_train_heldout(self, tmp_path, capsys):
        data, held, tpl = tmp_path / "train.conll", tmp_path / "held.conll", tmp_path / "t.txt"
        data.write_text("a 1 X\nb 1 Y\n\nb 1 Y\na 1 X\n\na 1 X\na 1 X\nb 1 Y\n")
        held.write_text("a 1 X\n\na 1e308 X\nb 1e308 Y\n")
        tpl.write_text("U00:%x[0,0]/%v[0,1]\nB\n")
        assert _strict_main(["train", "--algo", "perc", "--train", str(data), "--heldout",
                             str(held), "--templates", str(tpl), "--epochs", "3"]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite held-out scores of sequence 1 in epoch 1\n")

    @pytest.mark.parametrize("command", [["decode", "--input"], ["decode", "--nbest", "3",
                                                                  "--input"],
                                         ["diagnose", "--samples", "3", "--data"]])
    @pytest.mark.parametrize("overflow", ["weights", "values"])
    def test_read_path(self, workdir, capsys, command, overflow):
        # Weights of 1.7e308 overflow the emission scores; values of 1e308 the path sums.
        data = workdir / "train.conll"
        if overflow == "weights":
            model = _overflowing_model(workdir)
        else:
            model, data = _value_model(workdir), workdir / "data.conll"
            data.write_text("a 1e308 X\nb 1e308 Y\n\nb 1 Y\n")
        out = workdir / "out.txt"
        capsys.readouterr()
        assert _strict_main([*command, str(data), "--model", str(model),
                             "--output" if command[0] == "decode" else "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: non-finite scores of sequence 0\n"
        assert not out.exists()


class TestHelp:
    @pytest.mark.parametrize(
        "command,expected_flags",
        [
            ("train", ["--algo", "--train", "--templates", "--n", "--lr", "--l2",
                       "--epochs", "--seed", "--search", "--beam", "--curves",
                       "--model-out", "--lr-decay", "--mira-c"]),
            ("decode", ["--model", "--input", "--output", "--nbest"]),
            ("eval", ["--gold", "--pred", "--metric", "--per-tag"]),
            ("diagnose", ["--model", "--data", "--n-list", "--out"]),
            ("generate", ["--out", "--count", "--tags", "--vocab", "--mean-length",
                          "--seed", "--separability"]),
        ],
    )
    def test_help_lists_flags(self, command, expected_flags, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in expected_flags:
            assert flag in text

    def test_each_default_shown_once(self, capsys):
        assert main(["train", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert text.count("(default:") == len(fields(TrainConfig)) - 1  # all but --algo
        for shown in ("candidate count (default: 5)", "training epochs (default: 20)",
                      "step-size clip (default: inf)", "held-out metric (default: accuracy)"):
            assert shown in text
        assert main(["decode", "--help"]) == 0
        assert "(default:" not in capsys.readouterr().out

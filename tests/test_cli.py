import math

import pytest

from sapo.cli import main

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

    def test_bad_parameters(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x"), "--tags", "1"]) == 1


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
        for algo in ("crf-sgd", "perc", "perc-avg", "mira", "mira-avg"):
            code, _, _ = _train(workdir, algo=algo, epochs="1")
            assert code == 0, algo
        code, _, _ = _train(workdir, "--n", "3", algo="mira-nbest", epochs="1")
        assert code == 0

    def test_inapplicable_flag_combo(self, workdir, capsys):
        code, _, _ = _train(workdir, "--n", "5", algo="perc")
        assert code == 1
        assert "--n is not applicable" in capsys.readouterr().err

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

    def test_missing_model(self, workdir):
        assert main([
            "decode", "--model", str(workdir / "none.model"),
            "--input", str(workdir / "train.conll"), "--output", str(workdir / "x"),
        ]) == 2

    def test_column_mismatch(self, workdir, tmp_path):
        code, model, _ = _train(workdir)
        bad = tmp_path / "bad.conll"
        bad.write_text("a b c d\n")
        assert main([
            "decode", "--model", str(model), "--input", str(bad),
            "--output", str(tmp_path / "x"),
        ]) == 1

    def test_nbest_subcommand(self, workdir):
        code, model, _ = _train(workdir)
        out = workdir / "nb2.conll"
        assert main([
            "nbest", "--model", str(model), "--input", str(workdir / "train.conll"),
            "--output", str(out), "--n", "2",
        ]) == 0
        assert out.read_text().startswith("# seq=0 rank=1 ")


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

    def test_bad_n_list(self, tmp_path):
        assert main([
            "diagnose", "--model", "x", "--data", "y", "--n-list", "a,b",
            "--out", str(tmp_path / "o"),
        ]) == 1


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
            ("nbest", ["--model", "--input", "--output", "--n"]),
        ],
    )
    def test_help_lists_flags(self, command, expected_flags, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in expected_flags:
            assert flag in text

"""Tests for the outside-in layer tracer.

Run from the repository root:  python3 -m pytest -q bench/test_layertrace.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layertrace  # noqa: E402
import sapo  # noqa: E402
import sapo.cli  # noqa: E402
from sapo import training  # noqa: E402


def _bindings():
    """Every name bound in every sapo module, plus WeightState's attributes."""
    snap = {(mod.__name__, name): value
            for mod in layertrace._sapo_modules() for name, value in vars(mod).items()}
    snap.update({("WeightState", name): value
                 for name, value in vars(training.WeightState).items()})
    return snap


def test_every_rebound_name_is_restored():
    before = _bindings()
    tracer = layertrace.Tracer()
    with tracer:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # re-imported names are rebound too, not only the defining module's
        for key in [("sapo.lattice", "astar_nbest"), ("sapo.training", "astar_nbest"),
                    ("sapo.cli", "astar_nbest"), ("sapo.inference", "astar_nbest"),
                    ("sapo.lattice", "position_features"), ("sapo.cli", "read_conll"),
                    ("sapo.training", "token_accuracy"), ("sapo", "build_lattice"),
                    ("sapo.cli", "main"), ("WeightState", "sparse_add")]:
            assert key in changed, key
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_partition_the_command(tmp_path):
    corpus = sapo.generate_synthetic_hmm(K=3, V=12, T_mean=5, count=30, seed=4, separability=0.5)
    data = tmp_path / "train.conll"
    sapo.write_conll(corpus, str(data))
    tpl = tmp_path / "tpl.txt"
    tpl.write_text("U00:%x[0,0]\nU01:%x[-1,0]\nB\n")
    argv = ["train", "--algo", "sapo", "--train", str(data), "--heldout", str(data),
            "--templates", str(tpl), "--epochs", "2", "--n", "3",
            "--model-out", str(tmp_path / "m.txt")]
    with layertrace.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert sapo.cli.main(argv) == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["training.run_epoch"] == 2
    assert tracer.calls["lattice.astar_nbest"] == 2 * len(corpus.sequences)
    assert tracer.calls["training.sparse_add"] > 0 and tracer.items > 0
    assert len(tracer.latencies) == tracer.calls["lattice.astar_nbest"]
    total = tracer.total_s["cli.main"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert set(tracer.calls) <= set(layertrace.metric_keys())

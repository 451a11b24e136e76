"""The CLI's contract on generated inputs: train, then ``decode``, ``decode --nbest``
and ``diagnose``, through ``main``, on corpora whose ``%v`` cells reach subnormal and
overflowing magnitudes.

Every command exits 0, 1, 2 or 3 with no exception escaping ``main``, and no NumPy
``RuntimeWarning`` (raised here as an error).  A failure prints one ``error:`` line.
At exit 0 the objective, the n-best scores and probabilities and the diagnose rows
are finite, and ``read_conll`` reads back what ``decode`` wrote.
"""

import contextlib
import csv
import io
import math
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from sapo import read_conll
from sapo.cli import main
from sapo.training import _TRAINERS, ALGORITHMS

TAGS = ("X", "Y", "Z")
# Training values stay below 1e155, so that most trainings finish; the read path's go on
# to values whose products with the weights, or sums along a path, overflow.
TRAIN_VALUES = ("0", "1", "-2.5", "1e-320", "-1e-320", "1e154", "-3e154")
VALUES = TRAIN_VALUES + ("1e200", "1e308", "-1.7e308")
TEMPLATES = ("U00:%x[0,0]", "U01:%v[0,1]", "U02:%x[0,0]/%v[0,1]", "U03:%x[-1,0]/%v[0,1]",
             "B")


@st.composite
def corpora(draw, tags, values=VALUES):
    """CoNLL text of 1-4 sequences of 1-4 (word, value, tag) tokens."""
    token = st.tuples(st.sampled_from("abc"), st.sampled_from(values), st.sampled_from(tags))
    seqs = draw(st.lists(st.lists(token, min_size=1, max_size=4), min_size=1, max_size=4))
    return "\n\n".join("\n".join(" ".join(tok) for tok in seq) for seq in seqs) + "\n"


@st.composite
def runs(draw):
    """(train corpus, held-out corpus or None, read-path corpus, template text, train
    flags, n-best n)."""
    tags = TAGS[: draw(st.integers(1, len(TAGS)))]
    algo = draw(st.sampled_from(ALGORITHMS))
    flags = ["--algo", algo, "--epochs", str(draw(st.integers(1, 3)))]
    reads = _TRAINERS[algo][2]
    if "n" in reads:
        flags += ["--n", str(draw(st.integers(1, 4))),
                  "--search", draw(st.sampled_from(("astar", "beam")))]
    if "learning_rate" in reads:
        flags += ["--lr", draw(st.sampled_from(("0.05", "1")))]
    if "mira_clip" in reads:
        flags += ["--mira-c", draw(st.sampled_from(("inf", "1")))]
    templates = draw(st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=4, unique=True))
    # A last training sequence holds every tag, so that K is the drawn tag count, with
    # values that give the %v templates weights of moderate to large magnitude.
    values = draw(st.lists(st.sampled_from(("1", "-2.5", "1e154")), min_size=len(tags),
                           max_size=len(tags)))
    train = draw(corpora(tags, TRAIN_VALUES)) + "\n" + "".join(map("%s %s %s\n".__mod__,
                                                      zip("abc", values, tags)))
    heldout = draw(st.none() | corpora(tags))
    return (train, heldout, draw(corpora(tags)), "\n".join(templates) + "\n", flags,
            draw(st.integers(1, 4)))


def _run(*argv):
    """``main``'s exit code and stdout, checking the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert code in (0, 1, 2, 3)
    assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()) if code else not err.getvalue()
    return code, out.getvalue()


def _finite(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(runs())
def test_train_decode_nbest_diagnose_contract(run):
    train_text, held_text, data_text, template_text, flags, n = run
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, name)  # noqa: E731
        for name, text in (("train", train_text), ("held", held_text), ("data", data_text),
                           ("templates", template_text)):
            if text is not None:
                with open(path(name), "w", encoding="utf-8") as f:
                    f.write(text)
        held = ["--heldout", path("held")] if held_text is not None else []
        code, out = _run("train", "--train", path("train"), "--templates", path("templates"),
                         "--model-out", path("model"), "--curves", path("curves"), *flags,
                         *held)
        if code:
            return
        _finite(re.search(r"objective=(\S+)", out).group(1))
        with open(path("curves"), newline="") as f:
            for row in csv.DictReader(f):
                _finite(row["objective"])

        corpus = read_conll(path("data"), labeled=True)
        code, _ = _run("decode", "--model", path("model"), "--input", path("data"),
                       "--output", path("decoded"))
        if code == 0:
            decoded = read_conll(path("decoded"), labeled=True)
            assert [s.tokens for s in decoded.sequences] == [
                [tok + (tag,) for tok, tag in zip(s.tokens, s.gold)] for s in corpus.sequences]

        code, _ = _run("decode", "--model", path("model"), "--input", path("data"),
                       "--output", path("nbest"), "--nbest", str(n))
        if code == 0:
            with open(path("nbest"), encoding="utf-8") as f:
                heads = re.findall(r"^# seq=(\d+) rank=\d+ score=(\S+) prob=(\S+)$", f.read(),
                                   re.M)
            assert {int(seq) for seq, _, _ in heads} == set(range(len(corpus)))
            for _, score, prob in heads:
                _finite(score)
                assert 0.0 <= _finite(prob) <= 1.0

        code, _ = _run("diagnose", "--model", path("model"), "--data", path("data"),
                       "--samples", str(len(corpus)), "--n-list", "1,2,5",
                       "--out", path("delta"))
        if code == 0:
            with open(path("delta"), newline="") as f:
                for row in csv.DictReader(f):
                    for value in row.values():
                        _finite(value)

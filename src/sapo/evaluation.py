"""Token accuracy, BIO chunk F-score, and weight-complexity metrics."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .features import Model

_BIO_RE = re.compile(r"^([BI])-(.+)$")


@dataclass
class EvalReport:
    metric: str
    value: float
    counts: dict
    per_tag: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        parts = ["%s=%.4f" % (self.metric, self.value)]
        parts += ["%s=%d" % (k, v) for k, v in self.counts.items()]
        return " ".join(parts)

    def per_tag_csv_lines(self) -> list[str]:
        if self.metric == "accuracy":
            lines = ["gold,pred,count"]
            for (g, p), c in sorted(self.per_tag.items()):
                lines.append("%s,%s,%d" % (g, p, c))
        else:
            lines = ["type,matched,predicted,gold"]
            types = sorted({t for _, t in self.per_tag})
            for t in types:
                lines.append(
                    "%s,%d,%d,%d"
                    % (
                        t,
                        self.per_tag[("matched", t)],
                        self.per_tag[("predicted", t)],
                        self.per_tag[("gold", t)],
                    )
                )
        return lines


def _gold_sequences(gold_corpus, predictions):
    """The gold sequences of a corpus or a sequence list, checked against predictions."""
    sequences = list(getattr(gold_corpus, "sequences", gold_corpus))
    if len(predictions) != len(sequences):
        raise ValueError(
            "got predictions for %d sequences, corpus has %d"
            % (len(predictions), len(sequences))
        )
    for i, (seq, pred) in enumerate(zip(sequences, predictions)):
        if seq.gold is None:
            raise ValueError("sequence %d has no gold tags" % i)
        if len(pred) != len(seq):
            raise ValueError(
                "sequence %d: %d predictions for %d tokens" % (i, len(pred), len(seq))
            )
    return sequences


def token_accuracy(gold_corpus, predictions) -> EvalReport:
    """Fraction of tokens whose predicted tag equals the gold tag."""
    correct = total = 0
    confusion = Counter()
    for seq, pred in zip(_gold_sequences(gold_corpus, predictions), predictions):
        for g, p in zip(seq.gold, pred):
            total += 1
            correct += g == p
            confusion[(g, p)] += 1
    return EvalReport(
        metric="accuracy",
        value=correct / total,
        counts={"correct": correct, "total": total},
        per_tag=confusion,
    )


def extract_chunks(tags):
    """Chunks as (start, end, type) triples from a BIO tag list.

    An I-TYPE with no compatible open chunk opens a new chunk (the
    conlleval repair rule).  End indices are inclusive.
    """
    chunks = set()
    start = None
    ctype = None
    for t, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                chunks.add((start, t - 1, ctype))
                start = None
            continue
        m = _BIO_RE.match(tag)
        if not m:
            raise ValueError("malformed BIO tag %r at position %d" % (tag, t))
        marker, typ = m.groups()
        if marker == "B" or start is None or typ != ctype:
            if start is not None:
                chunks.add((start, t - 1, ctype))
            start, ctype = t, typ
    if start is not None:
        chunks.add((start, len(tags) - 1, ctype))
    return chunks


def chunk_f1(gold_corpus, predictions) -> EvalReport:
    """Balanced F-score over exactly-matched BIO (start, end, type) chunks."""
    matched = n_pred = n_gold = 0
    per_tag = Counter()
    for seq, pred in zip(_gold_sequences(gold_corpus, predictions), predictions):
        gold_chunks = extract_chunks(seq.gold)
        pred_chunks = extract_chunks(pred)
        both = gold_chunks & pred_chunks
        matched += len(both)
        n_pred += len(pred_chunks)
        n_gold += len(gold_chunks)
        for _, _, typ in both:
            per_tag[("matched", typ)] += 1
        for _, _, typ in pred_chunks:
            per_tag[("predicted", typ)] += 1
        for _, _, typ in gold_chunks:
            per_tag[("gold", typ)] += 1
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        metric="chunk_f1",
        value=f1,
        counts={"matched": matched, "predicted": n_pred, "gold": n_gold},
        per_tag=per_tag,
    )


# Scorers by ``--metric`` name, each looked up when called, so that a rebound module
# name (bench/layertrace.py wraps token_accuracy) is the one that runs.
SCORERS = {"accuracy": lambda gold, pred: token_accuracy(gold, pred),
           "chunk-f1": lambda gold, pred: chunk_f1(gold, pred)}


def w_complexity(m: Model) -> float:
    """Mean absolute value over all indexed weights, including zeros."""
    if len(m.weights) == 0:
        raise ValueError("model has no features")
    return float(np.abs(m.weights).mean())

"""Corpus reading/writing, synthetic corpus generation, model persistence.

CoNLL-style input: whitespace-separated columns, blank lines delimiting
sequences, the last column holding the gold tag for labeled data.  Output
always uses tabs and LF line endings.  Model files are line-oriented text
with weights printed in shortest exact decimal form, so a save/load round
trip reproduces identical scores.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .features import (
    FeatureIndex,
    Model,
    Sequence,
    Tagset,
    TemplateError,
    check_taggings,
    compile_templates,
    has_transitions,
    split_lines,
    weight_views,
)

MODEL_FORMAT_VERSION = "1"


class FormatError(ValueError):
    """Malformed corpus input."""


class ModelFileError(ValueError):
    """Malformed or incompatible model file."""


@dataclass
class Corpus:
    """A list of sequences with a uniform observation-column count."""

    sequences: list[Sequence]
    n_columns: int
    note: str = ""

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)


@contextmanager
def _opened(target, mode="r"):
    """A file object as is, or a path opened as UTF-8 (written with LF line endings)."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, encoding="utf-8", newline="\n" if mode == "w" else None) as f:
            yield f


def write_text(path, text: str):
    """Write ``text`` to a file object, or to a path as UTF-8 with LF line endings."""
    with _opened(path, "w") as f:
        f.write(text)


def read_conll(source, labeled: bool = True) -> Corpus:
    """Parse CoNLL-format text into a corpus.

    ``labeled`` treats the final column as the gold tag.  Column counts
    are inferred from the first token and enforced; lines end as in
    ``features.split_lines``, and trailing blank lines are tolerated.
    """
    with _opened(source) as stream:
        sequences = []
        file_columns = None
        rows: list[list[str]] = []

        def flush():
            if rows:
                tokens = [tuple(r[:-1] if labeled else r) for r in rows]  # labeled: last is gold
                sequences.append(Sequence(tokens, [r[-1] for r in rows] if labeled else None))
                rows.clear()

        for lineno, line in enumerate(chain.from_iterable(_line_blocks(stream)), start=1):
            if not line.strip():
                flush()
                continue
            cols = line.split()
            if file_columns is None:
                file_columns = len(cols)
                if labeled and file_columns < 2:
                    raise FormatError(
                        "line %d: labeled data needs at least 2 columns" % lineno
                    )
            elif len(cols) != file_columns:
                raise FormatError(
                    "line %d: expected %d columns, found %d"
                    % (lineno, file_columns, len(cols))
                )
            rows.append(cols)
        flush()
    if not sequences:
        raise FormatError("empty input: no sequences found")
    n_columns = file_columns - 1 if labeled else file_columns
    return Corpus(sequences=sequences, n_columns=n_columns)


# What str.split, and so read_conll, splits a line at; ASCII text holds no others.
_SPACE = re.compile(r"\s")
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def write_conll(corpus: Corpus, path, predictions=None):
    """Write a corpus, optionally appending predicted tags as a final column.

    Original columns (observations, then the gold tag when present) are
    preserved; output is tab-separated with LF line endings.  An empty string,
    or one holding whitespace (anything ``str.split`` splits at), would not read
    back, so it raises ValueError, naming the string and its sequence, before
    anything is written.
    """
    if predictions is not None:
        check_taggings(corpus.sequences, predictions)
    blocks = []
    separators = len(corpus.sequences) - 1  # the blank lines' line ends
    for i, seq in enumerate(corpus.sequences):
        pred = None if predictions is None else predictions[i]
        lines = []
        for t, token in enumerate(seq.tokens):
            cols = list(token)
            if seq.gold is not None:
                cols.append(seq.gold[t])
            if pred is not None:
                cols.append(pred[t])
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
        # each token's tabs and line end, one per column
        separators += len(seq) * (corpus.n_columns + (seq.gold is not None) + (pred is not None))
    text = "\n\n".join(blocks) + "\n"
    # The text holds more whitespace than its separators only where a string holds
    # some, and a separator starts it or follows another beyond the blank lines only
    # where a string is empty.  Only then are the strings searched one by one.
    data = text.encode()
    if text.isascii():
        spaces = len(data) - len(data.translate(None, _ASCII_SPACE))
    else:
        spaces = len(text) - len("".join(text.split()))
    sep = np.frombuffer(data, np.uint8)
    sep = (sep == ord("\t")) | (sep == ord("\n"))  # no other UTF-8 byte is 9 or 10
    adjacent = np.count_nonzero(sep[1:] & sep[:-1]) + sep[0]
    if spaces != separators or adjacent != len(corpus.sequences) - 1:
        for i, seq in enumerate(corpus.sequences):
            pred = () if predictions is None else predictions[i]
            check_writable(chain(chain.from_iterable(seq.tokens), seq.gold or (), pred), i)
    write_text(path, text)


def check_writable(strings, i):
    """Raise ValueError naming the first of ``strings``, written for sequence ``i``, that
    would not read back: an empty one, or one holding whitespace."""
    for string in strings:
        if not string or _SPACE.search(string):
            raise ValueError("cannot write %r of sequence %d: it %s, so the file would "
                             "not read back" % (string, i, "holds whitespace"
                                                if string else "is empty"))


# ---------------------------------------------------------------------------
# Synthetic corpus generation


def synthetic_hmm_params(K: int, V: int, seed: int, separability: float):
    """Seeded HMM parameters: (initial, transition, emission) matrices.

    Transitions are a sticky doubly-stochastic circulant (uniform
    stationary distribution).  Each word has a home tag (word index mod K);
    ``separability`` interpolates emissions between uniform (0) and
    emitting only home words (1).
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if V < K:
        raise ValueError("V must be >= K")
    if not 0.0 <= separability <= 1.0:
        raise ValueError("separability must be in [0, 1]")
    rng = np.random.default_rng([int(seed), 0])
    base = rng.dirichlet(np.ones(K))
    stickiness = 0.3
    trans = np.empty((K, K))
    for a in range(K):
        for b in range(K):
            trans[a, b] = stickiness * (a == b) + (1.0 - stickiness) * base[(b - a) % K]
    home = np.arange(V) % K
    emit = np.full((K, V), (1.0 - separability) / V)
    for k in range(K):
        emit[k, home == k] += separability * K / V
    emit /= emit.sum(axis=1, keepdims=True)
    init = np.full(K, 1.0 / K)
    return init, trans, emit


def generate_synthetic_hmm(
    K: int,
    V: int,
    T_mean: float,
    count: int,
    seed: int,
    separability: float,
) -> Corpus:
    """Sample a labeled corpus from a seeded HMM.

    Sequence lengths are geometric with mean ``T_mean``, clamped to
    [1, 4 * T_mean].  Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not math.isfinite(T_mean):
        raise ValueError("T_mean must be finite, got %r" % T_mean)
    if T_mean < 1:
        raise ValueError("T_mean must be >= 1")
    init, trans, emit = synthetic_hmm_params(K, V, seed, separability)
    rng = np.random.default_rng([int(seed), 1])
    width = len(str(V - 1))
    words = ["w%0*d" % (width, v) for v in range(V)]
    tags = ["t%d" % k for k in range(K)]
    # As lists, for bisect_left: np.searchsorted without its per-call overhead.
    init_cum = np.cumsum(init).tolist()
    trans_cum = np.cumsum(trans, axis=1).tolist()
    emit_cum = np.cumsum(emit, axis=1).tolist()
    max_len = int(4 * T_mean)
    sequences = []
    for _ in range(count):
        T = int(min(max(rng.geometric(1.0 / T_mean), 1), max_len))
        u = rng.random((T, 2)).tolist()
        tokens = []
        gold = []
        k = bisect_left(init_cum, u[0][0])
        for t, (u_tag, u_word) in enumerate(u):
            if t > 0:
                k = bisect_left(trans_cum[k], u_tag)
            v = bisect_left(emit_cum[k], u_word)
            tokens.append((words[v],))
            gold.append(tags[k])
        sequences.append(Sequence(tokens=tokens, gold=gold))
    note = "synthetic-hmm K=%d V=%d T_mean=%g count=%d seed=%d separability=%g" % (
        K,
        V,
        T_mean,
        count,
        seed,
        separability,
    )
    return Corpus(sequences=sequences, n_columns=1, note=note)


# ---------------------------------------------------------------------------
# Model persistence
#
# Both directions stream: the writer writes the nonzero cells of one block of
# table rows at a time; the reader parses one read at a time and keeps only each
# line's flat weight id and weight, for one duplicate sort and one scatter.

_WRITE_CELLS = 8192  # table cells per writer block
_READ_CHARS = 1 << 18  # characters per reader block
_FIELD_BREAK = re.compile(r"[\t\r\n]")  # what a saved raw string or tag cannot hold


def save_model(m: Model, path):
    """Write a model as line-oriented text; zero weights are omitted.  An empty tag, or a
    raw string or tag holding a tab or a line end, raises ValueError before anything is
    written, as :func:`load_model` would reject the file."""
    if "" in m.tagset.tags:
        raise ValueError("cannot save a model with an empty tag")
    for kind, names in (("raw string", m.index.raw_strings), ("tag", m.tagset.tags)):
        if _FIELD_BREAK.search(" ".join(names)):
            raise ValueError("cannot save a model whose %s %r holds a tab or a line end" % (
                kind, next(name for name in names if _FIELD_BREAK.search(name))))
    text = m.template_text
    if text and not text.endswith("\n"):
        text += "\n"
    tags = m.tagset.tags
    cells = ["\t%s\t" % tag for tag in tags]
    step = max(1, _WRITE_CELLS // len(tags))
    with _opened(path, "w") as out:
        out.write("version\t%s\ncolumns\t%d\ntags\t%s\nconfig\t%s\ntemplates-begin\n%stemplates-end\n" % (
            MODEL_FORMAT_VERSION, m.n_columns, "\t".join(tags), json.dumps(m.meta, sort_keys=True), text))
        tables = zip("ET", weight_views(m.weights, m.index), (m.index.raw_strings, tags))
        for kind, table, names in tables:
            for lo in range(0, len(table), step):
                block = table[lo : lo + step]
                rows, cols = np.nonzero(block)
                lines = zip((rows + lo).tolist(), cols.tolist(), block[rows, cols].tolist())
                out.write("".join([f"{kind}\t{names[i]}{cells[j]}{w!r}\n" for i, j, w in lines]))


def _line_blocks(stream):
    """The remaining lines of ``stream`` without their ends, one list per read of
    ``_READ_CHARS`` characters; a line that a read cuts goes whole into the next list.
    Lines end as in ``split_lines``, whether the stream translated its line ends or not."""
    carry = ""
    for chunk in iter(lambda: stream.read(_READ_CHARS), ""):
        text = carry + chunk
        cut = len(text) - text.endswith("\r")  # the next read may hold its "\n"
        lines = split_lines(text[:cut])
        carry = lines.pop() + text[cut:]
        yield lines
    lines = split_lines(carry)
    yield lines if lines[-1] else lines[:-1]


def load_model(path) -> Model:
    """Load a model saved by :func:`save_model`; scores round-trip exactly.

    A fault names its line.  Duplicate features are looked for only after
    every line has passed its own checks."""
    with _opened(path) as stream:
        lines, lineno = chain.from_iterable(_line_blocks(stream)), 0

        def next_line(key):
            nonlocal lineno
            lineno += 1
            line = next(lines, None)
            if line is None:
                raise ModelFileError("truncated model file: missing %r line" % key)
            return line

        def header(key):
            parts = next_line(key).split("\t")
            if parts[0] != key:
                raise ModelFileError("line %d: expected %r header" % (lineno, key))
            return parts[1:]

        version = header("version")
        if version != [MODEL_FORMAT_VERSION]:
            raise ModelFileError(
                "unsupported model file version %r (expected %s)"
                % ("\t".join(version), MODEL_FORMAT_VERSION)
            )
        columns = header("columns")
        try:
            n_columns = int(columns[0])
        except (IndexError, ValueError):
            raise ModelFileError("line 2: malformed columns header") from None
        tags = header("tags")
        if not tags:
            raise ModelFileError("line 3: empty tagset")
        if "" in tags:
            raise ModelFileError("line 3: empty tag")
        if len(set(tags)) < len(tags):
            raise ModelFileError("line 3: duplicate tag %r" % next(
                tag for i, tag in enumerate(tags) if tag in tags[:i]))
        meta_raw = header("config")
        try:
            meta = json.loads("\t".join(meta_raw) or "{}")
        except json.JSONDecodeError:
            raise ModelFileError("line 4: malformed config JSON") from None
        if next_line("templates-begin") != "templates-begin":
            raise ModelFileError("line 5: expected 'templates-begin'")
        template_lines = iter(lambda: next_line("templates-end"), "templates-end")
        template_text = "".join(line + "\n" for line in template_lines)
        try:  # five blank lines stand in for the header, so errors name file lines
            templates = compile_templates("\n" * 5 + template_text)
        except TemplateError as e:
            raise ModelFileError(str(e)) from None
        tagset = Tagset(tags)
        transitions = has_transitions(templates)
        index = FeatureIndex(num_tags=len(tagset), transitions=transitions)
        K, tag_ids = len(tagset), tagset.index
        ids, ws, blank = array("q"), array("d"), array("q")  # flat weight ids, weights, blank lines
        first, raw = lineno + 1, None
        for lineno, line in enumerate(lines, start=lineno + 1):
            if not line:
                blank.append(lineno)
                continue
            parts = line.split("\t")
            if len(parts) != 4 or parts[0] not in ("E", "T"):
                raise ModelFileError("line %d: corrupt feature line %r" % (lineno, line))
            kind, a, b, wtext = parts
            try:
                w = float(wtext)
            except ValueError:
                raise ModelFileError("line %d: bad weight %r" % (lineno, wtext)) from None
            if not math.isfinite(w):
                raise ModelFileError("line %d: non-finite weight %r" % (lineno, wtext))
            col = tag_ids.get(b)
            if kind == "E":
                if col is None:
                    raise ModelFileError("line %d: unknown tag %r" % (lineno, b))
                if a != raw:  # a row's lines usually come together
                    raw, rid = a, index.add_raw(a)
                ids.append(rid * K + col)
            else:
                if not transitions:
                    raise ModelFileError(
                        "line %d: transition feature in a model without transitions" % lineno
                    )
                prev = tag_ids.get(a)
                if prev is None or col is None:
                    raise ModelFileError("line %d: unknown tag pair %r/%r" % (lineno, a, b))
                ids.append(-1 - (prev * K + col))  # the raw-id count is not known yet
            ws.append(w)
    index.freeze()
    ids = np.frombuffer(ids, np.int64)
    ids = np.where(ids < 0, index.transition_base - 1 - ids, ids)
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][np.diff(ids[order]) == 0]  # each id's feature lines after its first
    if len(repeats):
        at = int(repeats.min())
        row, col = divmod(int(ids[at]), K)
        key = ("E" if row < index.n_raw else "T", (index.raw_strings + tags)[row], tags[col])
        lineno = first + at
        for b in blank:  # each blank line up to the feature line moves it down by one
            lineno += b <= lineno
        raise ModelFileError("line %d: duplicate feature %r" % (lineno, "\t".join(key)))
    weights = np.zeros(index.n_features)
    weights[ids] = np.frombuffer(ws)
    return Model(tagset=tagset, index=index, templates=templates, weights=weights,
                 n_columns=n_columns, template_text=template_text, meta=meta)

"""Core model for linear-chain sequence labeling.

The feature space factorizes into per-position emission features (an
observation pattern conjoined with the tag at that position) and, when
enabled, tag-bigram transition features.  Observation patterns come from
CRF++-style templates, so the full feature set is the cross product of
the raw observation strings with the tagset, plus one feature per ordered
tag pair.  Feature ids are laid out in blocks:

    emission  (raw_id, tag)   ->  raw_id * K + tag
    transition (prev, cur)    ->  n_raw * K + prev * K + cur

which keeps the dense weight vector reshapeable into an (n_raw, K)
emission table and a (K, K) transition table.  ``mass_rows``, the one builder of
feature vectors from masses over taggings, works in this layout and ``weight_views``
in the tables; the one other user is ``dataio.load_model``, which computes flat ids
(``rid * K + col``, and transition ids after ``transition_base``) from a model
file's lines.

Extraction works a template at a time over a whole corpus: every atom's cells
come from the corpus's token columns at once, each observation template's raw
strings and ``%v`` values are built for every position (``_observations``), and
their ids are looked up in one pass.  ``build_feature_index`` numbers raw strings
in first-seen (sequence, position, template) order.  ``compile_corpus`` reads no
column past the model's own and splits one id array into each sequence's compiled
form; ``compile_sequence`` and ``position_features`` are its one-sequence cases.

A compiled sequence holds its position features as arrays and, when labeled, the update
kernel's cells.  A sparse vector, an E[F] or an update E[F] - F(x, y*) (one
``expected_features`` call given y* as ``minus``), is an array of ``SPARSE`` (id, value)
records sorted by id and free of duplicates; ``.tolist()`` gives its pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter

import numpy as np


class TemplateError(ValueError):
    """Template text failed to parse, or a template does not fit the data."""


class ExtractionError(ValueError):
    """A sequence/tagging pair violates the extraction preconditions."""


@dataclass(frozen=True)
class TemplateAtom:
    """One %x[row,col] (string) or %v[row,col] (numeric value) reference."""

    row: int
    col: int
    numeric: bool = False


@dataclass(frozen=True)
class FeatureTemplate:
    """A named window expression over token columns.

    ``transition`` templates (a bare ``B`` line) carry no atoms and enable
    tag-bigram features instead of extracting observation strings.
    """

    name: str
    atoms: tuple[TemplateAtom, ...] = ()
    transition: bool = False


@dataclass
class Sequence:
    """One sample: observation tokens plus an optional gold tagging."""

    tokens: list[tuple[str, ...]]
    gold: list[str] | None = None

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ValueError("sequence must contain at least one token")
        if self.gold is not None and len(self.gold) != len(self.tokens):
            raise ValueError(
                "gold length %d does not match token count %d"
                % (len(self.gold), len(self.tokens))
            )

    def __len__(self):
        return len(self.tokens)


def sequences_of(data) -> list[Sequence]:
    """The sequences of a corpus (anything with ``.sequences``) or of a sequence list."""
    return list(getattr(data, "sequences", data))


def check_taggings(sequences, taggings):
    """Raise ValueError unless there is one tagging per sequence, as long as it."""
    if len(taggings) != len(sequences):
        raise ValueError(
            "got predictions for %d sequences, corpus has %d" % (len(taggings), len(sequences))
        )
    for i, (seq, tags) in enumerate(zip(sequences, taggings)):
        if len(tags) != len(seq):
            raise ValueError(
                "sequence %d: %d predictions for %d tokens" % (i, len(tags), len(seq))
            )


class Tagset:
    """Ordered bijection between tag strings and dense ids 0..K-1."""

    def __init__(self, tags):
        self.tags = list(tags)
        self.index = {tag: i for i, tag in enumerate(self.tags)}
        if len(self.index) != len(self.tags):
            raise ValueError("duplicate tags in tagset")

    @classmethod
    def from_corpus(cls, sequences):
        """Collect tags in first-occurrence order over the gold taggings."""
        tags = []
        seen = set()
        for seq in sequences:
            if seq.gold is None:
                raise ValueError("cannot build a tagset from unlabeled data")
            for tag in seq.gold:
                if tag not in seen:
                    seen.add(tag)
                    tags.append(tag)
        return cls(tags)

    def id(self, tag):
        try:
            return self.index[tag]
        except KeyError:
            raise ExtractionError("tag %r not in tagset" % (tag,)) from None

    def ids(self, tags):
        return [self.id(t) for t in tags]

    def tag(self, tag_id):
        return self.tags[tag_id]

    def __len__(self):
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)


_ATOM_RE = re.compile(r"^%([xv])\[(-?\d+),(\d+)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, by the one line-end rule of templates, corpora and model files:
    a newline, a CRLF or a lone carriage return ends a line, and no other line break does."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def compile_templates(spec_text: str) -> list[FeatureTemplate]:
    """Parse template text into a deterministic template list.

    Grammar, one template per line: ``<id>:%x[<row>,<col>]`` atoms joined
    by ``/``, with |row| < 2**31; ``%v[<row>,<col>]`` reads a numeric feature
    value from a cell (at most one per template); lines starting with ``#``
    are comments; a bare ``B`` line enables tag-bigram transition features.  Lines
    end as in ``split_lines``; line numbers count those ends.
    """
    templates = []
    names = set()
    for lineno, rawline in enumerate(split_lines(spec_text), start=1):
        line = rawline.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        if line == "B":
            templates.append(FeatureTemplate(name="B", transition=True))
            continue
        if ":" not in line:
            raise TemplateError(
                "line %d, column %d: expected '<id>:<atoms>'" % (lineno, len(line) + 1)
            )
        name, _, body = line.partition(":")
        if not _NAME_RE.match(name):
            raise TemplateError("line %d, column 1: invalid template id %r" % (lineno, name))
        if name.startswith("B"):
            raise TemplateError(
                "line %d: observation-dependent transition templates (%r) are not supported"
                % (lineno, name)
            )
        if name in names:
            raise TemplateError("line %d: duplicate template id %r" % (lineno, name))
        names.add(name)
        atoms = []
        pos = len(name) + 2  # 1-based column of the first atom character
        n_numeric = 0
        for part in body.split("/"):
            m = _ATOM_RE.match(part)
            if not m:
                raise TemplateError(
                    "line %d, column %d: malformed atom %r" % (lineno, pos, part)
                )
            numeric, row = m.group(1) == "v", int(m.group(2))
            if abs(row) >= 2**31:  # so that position + row cannot overflow an int64
                raise TemplateError("line %d, column %d: row offset %d is outside (-2**31, 2**31)"
                                    % (lineno, pos, row))
            n_numeric += numeric
            atoms.append(TemplateAtom(row=row, col=int(m.group(3)), numeric=numeric))
            pos += len(part) + 1
        if n_numeric > 1:
            raise TemplateError(
                "line %d: at most one %%v value atom per template" % lineno
            )
        templates.append(FeatureTemplate(name=name, atoms=tuple(atoms)))
    return templates


def has_transitions(templates) -> bool:
    return any(t.transition for t in templates)


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _observations(token_lists, templates, n_columns, t=None):
    """Every observation template's raw string and value at every position of a corpus.

    Returns (strings, values, fired): object, float and bool arrays with one row per
    position in (sequence, position) order, or one row for position ``t`` of a
    one-sequence corpus, and one column per observation template.  ``fired`` is false
    where a ``%v`` atom falls beyond the boundary or reads 0.  Cells are gathered for
    every atom at once from the corpus's token columns; rows out of range read the
    reserved boundary symbols ``_B-d_`` and ``_B+d_``.  Raises the TemplateError of the
    first failing (position, template): a template's atoms fail in order, and a ``%v``
    atom beyond the boundary stops its template at that position.
    """
    obs = [tpl for tpl in templates if not tpl.transition]
    atoms = [atom for tpl in obs for atom in tpl.atoms]
    lengths = np.fromiter(map(len, token_lists), np.intp, len(token_lists))
    tokens = list(chain.from_iterable(token_lists))
    if len(set(map(len, tokens))) > 1:
        k, width = next((k, w) for k, w in enumerate(map(len, tokens)) if w != len(tokens[0]))
        raise ExtractionError("sequence %d has a token of %d columns, expected %d" % (
            lengths.cumsum().searchsorted(k, side="right"), width, len(tokens[0])))
    T = lengths.repeat(lengths)
    start = (lengths.cumsum() - lengths).repeat(lengths)  # flat index of the sequence's token 0
    pos = np.arange(len(tokens)) - start
    if t is not None:
        T, start, pos = T[:1], start[:1], np.array([t])
    # (atom, row): the atom's position in its sequence, and the cell it reads there from
    # the token columns it names, laid end to end (an unknown column reads "")
    p = pos + np.array([atom.row for atom in atoms], dtype=np.intp)[:, None]
    before, out = p < 0, (p < 0) | (p >= T)
    named = sorted({min(atom.col, n_columns) for atom in atoms})
    table = np.concatenate([np.fromiter(map(itemgetter(col), tokens), object, len(tokens))
                            if col < n_columns else np.full(len(tokens), "", object)
                            for col in named] or [np.empty(0, object)])
    block = np.array([named.index(min(atom.col, n_columns)) for atom in atoms], dtype=np.intp)
    cells = table[np.where(out, 0, start + p) + block[:, None] * len(tokens)]
    cells[out] = ["_B%+d_" % d for d in np.where(before, p, p - T + 1)[out].tolist()]

    values = np.ones((len(pos), len(obs)))
    fired = np.ones(values.shape, bool)
    failures = []  # (row, template column, message): each failing atom's first row
    prefixes, firsts = [], []  # each atom's string prefix; each template's first atom
    for j, tpl in enumerate(obs):
        alive = fired[:, j]  # a view: the rows where the template has not stopped
        firsts.append(len(prefixes))
        head = tpl.name + "="
        for a, atom in enumerate(tpl.atoms, len(prefixes)):
            prefixes.append("" if atom.numeric else head)
            head = head if atom.numeric else "/"
            if atom.numeric:
                alive &= ~out[a]  # no numeric cell to read beyond the boundary
            if atom.col >= n_columns:
                if alive.any():
                    failures.append((int(alive.argmax()), j, "unknown column reference %d "
                                     "(data has %d columns)" % (atom.col, n_columns)))
                alive[:] = False
            elif atom.numeric:
                rows = alive.nonzero()[0]
                read = cells[a, rows].tolist()
                parsed = {cell: _float(cell) for cell in set(read)}
                got = np.array(list(map(parsed.__getitem__, read)), dtype=float)  # None: nan
                bad = ~np.isfinite(got)
                if bad.any():
                    k = int(bad.argmax())
                    failures.append((int(rows[k]), j, "template %s: %s cell %r for %%v atom" % (
                        tpl.name, "non-numeric" if parsed[read[k]] is None else "non-finite",
                        read[k])))
                    alive[rows[bad]] = False
                values[rows, j] = got
                cells[a] = ""
        if head != "/":  # no %x atom: the string is the name alone
            prefixes[-1] = head
    if failures:
        raise TemplateError(min(failures)[2])
    fired &= values != 0.0
    # A template's string: the name, "=", then its %x cells joined by "/".
    pieces = np.array(prefixes, dtype=object)[:, None] + cells
    strings = np.add.reduceat(pieces, np.array(firsts, dtype=np.intp), axis=0).T
    return strings, values, fired


def position_features(tokens, t, templates, n_columns):
    """Raw (string, value) observation features fired at position ``t``."""
    strings, values, fired = _observations([tokens], templates, n_columns, t)
    return [(raw, value) for raw, value, f in
            zip(strings[0].tolist(), values[0].tolist(), fired[0].tolist()) if f]


class FeatureIndex:
    """Frozen mapping from feature strings to dense ids.

    Only raw observation strings are stored; the tag (or tag pair) is
    folded in arithmetically via the block layout described in the module
    docstring.  After :meth:`freeze`, unseen raw strings silently map to
    "absent" and contribute zero score.
    """

    def __init__(self, num_tags: int, transitions: bool):
        self.num_tags = num_tags
        self.transitions = transitions
        self.raw_ids: dict[str, int] = {}
        self.raw_strings: list[str] = []
        self.frozen = False

    @property
    def n_raw(self):
        return len(self.raw_strings)

    @property
    def n_features(self):
        n = self.n_raw * self.num_tags
        if self.transitions:
            n += self.num_tags * self.num_tags
        return n

    @property
    def transition_base(self):
        return self.n_raw * self.num_tags

    def add_raw(self, raw: str) -> int:
        if self.frozen:
            raise RuntimeError("feature index is frozen")
        fid = self.raw_ids.get(raw)
        if fid is None:
            fid = len(self.raw_strings)
            self.raw_ids[raw] = fid
            self.raw_strings.append(raw)
        return fid

    def lookup_raw(self, raw: str):
        return self.raw_ids.get(raw)

    def freeze(self):
        self.frozen = True
        return self


def build_feature_index(sequences, templates, tagset, n_columns, compiled=None) -> FeatureIndex:
    """Scan a labeled training corpus once and return the frozen feature index, raw ids in
    first-seen (sequence, position, template) order.  Given a list as ``compiled``, the
    scan appends each sequence's compiled form."""
    index = FeatureIndex(num_tags=len(tagset), transitions=has_transitions(templates))
    token_lists = [seq.tokens for seq in sequences]
    obs = _observations(token_lists, templates, n_columns)
    strings, _, fired = obs
    for raw in dict.fromkeys(strings[fired].tolist()):
        index.add_raw(raw)
    index.freeze()
    if compiled is not None:
        compiled.extend(_split(token_lists, [tagset.ids(seq.gold) for seq in sequences], obs,
                               index))
    return index


@dataclass
class CompiledSequence:
    """One sequence's position features that a frozen feature index holds, in order, and
    from a labeled compile the update kernel's cells (see ``_split``)."""

    gold: list | None  # gold tag ids, or None
    trans_base: int | None  # id of the first transition feature, None without transitions
    rids: np.ndarray  # the features' raw ids
    vals: np.ndarray  # their values
    counts: np.ndarray  # (T,): each position's number of features
    bases: np.ndarray | None  # each row's id for tag 0; None when unlabeled
    bins: np.ndarray | None  # each feature's bin for tag 0; None when unlabeled


def _split(token_lists, golds, observations, index) -> list[CompiledSequence]:
    """Each sequence's compiled form from its corpus's ``_observations``: the fired
    features the frozen index holds, unseen strings dropped.  Given golds, one ``np.unique``
    gives every sequence's cells: a row of K bins per distinct raw id in order, then one
    per tag prev with transitions (trans_base + prev * K + cur continues the layout)."""
    strings, values, fired = observations
    flat = strings[fired].tolist()
    rids = np.fromiter(map(index.raw_ids.get, flat, repeat(-1)), np.intp, len(flat))
    held, seen = fired.copy(), rids >= 0
    held[fired] = seen
    rids, vals, counts = rids[seen], values[held], held.sum(axis=1, dtype=np.intp)
    ends = np.fromiter(map(len, token_lists), np.intp, len(token_lists)).cumsum()
    offsets = counts.cumsum()[ends - 1].tolist()
    trans_base = index.transition_base if index.transitions else None
    K, S, firsts = index.num_tags, len(golds), [0] * (len(golds) + 1)
    if None not in golds:  # a key is sequence * stride + row
        stride = index.n_raw + K
        seq = np.arange(S).repeat(np.diff(offsets, prepend=0))
        prevs = np.arange(index.n_raw, index.n_raw + K * index.transitions)  # rows n_raw + prev
        trans = np.add.outer(np.arange(S) * stride, prevs).ravel()
        rows, inv = np.unique(np.concatenate((seq * stride + rids, trans)), return_inverse=True)
        firsts = rows.searchsorted(np.arange(S + 1) * stride).tolist()
        bases, bins = rows % stride * K, (inv[:len(rids)] - rows.searchsorted(seq * stride)) * K
    out, a, s = [], 0, 0
    for gold, b, e, p, q in zip(golds, offsets, ends.tolist(), firsts, firsts[1:]):
        cells = (None, None) if gold is None else (bases[p:q], bins[a:b])
        out.append(CompiledSequence(gold, trans_base, rids[a:b], vals[a:b], counts[s:e], *cells))
        a, s = b, e
    return out


def compile_corpus(m: Model, sequences, labeled: bool = False) -> list[CompiledSequence]:
    """Index every sequence's position features under the model in one corpus-wide pass;
    raw strings the model has not seen are dropped.

    With ``labeled`` each gold tagging is required and kept as tag ids; otherwise
    ``gold`` is None.  The first failure in (sequence, position, template) order is
    raised, a sequence's missing or unknown gold tags before its features' failures.
    """
    golds = [None] * len(sequences)
    for i, seq in enumerate(sequences if labeled else ()):
        try:
            if seq.gold is None:
                raise ExtractionError("sample has no gold tagging")
            golds[i] = m.tagset.ids(seq.gold)
        except ExtractionError:
            compile_corpus(m, sequences[:i])  # an earlier sequence's failure comes first
            raise
    return _compile([s.tokens for s in sequences], golds, m.templates, m.index, m.n_columns)


def _compile(token_lists, golds, templates, index, n_columns):
    """Compiled sequences of token lists, reading no column past the first ``n_columns``."""
    if not token_lists:
        return []
    obs = _observations(token_lists, templates, min(len(token_lists[0][0]), n_columns))
    return _split(token_lists, golds, obs, index)


def compile_sequence(m: Model, seq: Sequence, labeled: bool = False) -> CompiledSequence:
    """:func:`compile_corpus` of one sequence."""
    return compile_corpus(m, [seq], labeled)[0]


SPARSE = np.dtype([("id", np.intp), ("value", float)])


def sparse_vector(ids, values):
    """A ``SPARSE`` array of the given sorted, distinct ids and their values."""
    out = np.empty(len(ids), SPARSE)
    out["id"], out["value"] = ids, values
    return out


def sparse_sum(terms):
    """sum_k c_k * v_k over (c_k, sparse vector v_k) pairs, zero sums kept; in order from 0.0."""
    ids = np.concatenate([v["id"] for _, v in terms])
    values = np.concatenate([c * v["value"] for c, v in terms])
    order = ids.argsort(kind="stable")  # equal ids adjacent, their terms still in order
    ids = ids[order]
    first = np.diff(ids, prepend=-1) != 0
    return sparse_vector(ids[first], np.bincount(first.cumsum() - 1, values[order]))


def expected_features(cs: CompiledSequence, mass, K, minus=None):
    """E[F(x, y)] under one mass, a one-row entry of :func:`mass_rows`, as a sparse vector
    of its nonzero entries.  Given a tagging ``minus``, E[F] - F(x, minus): F fills a
    second row, so each id is 0.0 + E + (-F) as in ``sparse_sum``."""
    rows = mass_rows(cs, [mass] if minus is None else [mass, np.array(minus, np.intp)[None]], K)
    sums = rows[0] - rows[1] if minus is not None else rows[0]
    nz = (sums != 0.0).nonzero()[0]
    return sparse_vector(_cell_ids(cs, nz, K), sums[nz])


def mass_rows(cs: CompiledSequence, entries, K):
    """E[F(x, y)] under every mass of ``entries``, one row each in order, from one
    ``np.bincount`` over the kernel cells of ``cs`` (see :func:`_cell_ids`).

    An entry is a stack of S masses: an integer (S, T) array of taggings, the point mass
    on each, or a tally (tag_mass, pairs, pair_mass): each tag's mass at each position,
    (S, T, K), and the mass (S, P) at each tag pair prev * K + cur of ``pairs`` (P,),
    which the S sets share.  A feature (raw_id, value) at t adds value * mass to
    (raw_id, tag), and with transitions a pair's mass goes to its cell in the last K
    rows.  Each cell sums its terms in position order, and a pair's in the given order,
    from 0.0 (``np.bincount`` adds in input order); emission and pair cells are disjoint."""
    n, s, ids, terms = len(cs.bases) * K, 0, [], []
    for e in entries:
        S = len(e[0]) if isinstance(e, tuple) else len(e)
        # Each row's first cell; one row takes scalars, as lean as one row can be.
        at = s * n if S == 1 else s * n + n * np.arange(S)[:, None]
        if isinstance(e, tuple):
            mass, pairs, pair_mass = e
            tags = np.arange(at, at + K) if S == 1 else (np.arange(K) + at)[:, None]
            ids.append((cs.bins[:, None] + tags).ravel())
            terms.append((mass.repeat(cs.counts, 1) * cs.vals[:, None]).ravel())
        else:  # value * 1.0 is the value
            ids.append((cs.bins + e.repeat(cs.counts, 1) + at).ravel())
            terms += [cs.vals] * S
            pairs = e[:, :-1] * K + e[:, 1:]
            pair_mass = np.ones(pairs.shape)
        if cs.trans_base is not None:  # pairs are the cells of the last K rows
            ids.append((pairs + (at + n - K * K)).ravel())
            terms.append(pair_mass.ravel())
        s += S
    return np.bincount(np.concatenate(ids), np.concatenate(terms), s * n).reshape(s, n)


def _cell_ids(cs: CompiledSequence, cells, K):
    """The feature id of each kernel cell c of ``cs``: K cells per row, the tag's."""
    return cs.bases[cells // K] + cells % K


def path_items(cs: CompiledSequence, path, K, minus=None):
    """Global feature vector F(x, y) of one tagging: E[F] under the point mass on it."""
    return expected_features(cs, np.array(path, np.intp)[None], K, minus)


def path_matrix(cs: CompiledSequence, paths, K, minus):
    """Each tagging's F(x, y) - F(x, minus) as a row of one dense matrix.

    Returns (matrix, ids): one row per path, and one column per kernel cell of ``cs``
    where some row is nonzero, ``ids`` the columns' feature ids in increasing order.
    One :func:`mass_rows` stack holds the paths and, last, ``minus``; a row's nonzeros
    are ``path_items(cs, path, K, minus)``, bit for bit."""
    rows = mass_rows(cs, [np.vstack((paths, minus))], K)
    diff = rows[:-1] - rows[-1]
    cells = diff.any(axis=0).nonzero()[0]
    return diff[:, cells], _cell_ids(cs, cells, K)


def extract_features(x: Sequence, y, templates, index: FeatureIndex):
    """Global feature vector of (x, y) as a sorted sparse (id, value) list.

    Equals the position-wise sum of emission features plus the tag-bigram
    transition counts.  Raw strings missing from the frozen index are
    silently omitted; exact zero values are not stored.  :func:`tag_table` checks ``y``.
    """
    K = index.num_tags
    y = tag_table([y], [len(x)], K)[0]
    cs = _compile([x.tokens], [y.tolist()], templates, index, len(x.tokens[0]))[0]
    return path_items(cs, y, K).tolist()


def tag_table(paths, lengths, K):
    """The taggings ``paths``, one per sequence of ``lengths`` (longest first), as the
    zero-padded rows of an integer array.  A tagging of another length than its sequence's,
    or else the first tag id not a whole number in 0..K-1, raises ExtractionError."""
    if [len(p) for p in paths] != list(lengths):
        raise ExtractionError("taggings of lengths %s for sequences of lengths %s"
                              % ([len(p) for p in paths], list(lengths)))
    y = np.zeros((len(paths), lengths[0]))
    for row, p in zip(y, paths):
        row[: len(p)] = p
    bad = np.flatnonzero((np.floor(y) != y) | (y < 0) | (y >= K))  # NaN is never whole
    if len(bad):
        tag = float(y.flat[bad[0]])
        raise ExtractionError("tag id %r outside tagset of size %d" % (int(tag), K)
                              if tag.is_integer() else "tag id %r is not a whole number" % tag)
    return y.astype(np.intp)


def weight_views(weights: np.ndarray, index: FeatureIndex):
    """(n_raw, K) emission and (K, K) transition views of a weight vector.

    The transition table is a zero array when transitions are off.
    """
    K = index.num_tags
    emit = weights[: index.n_raw * K].reshape(index.n_raw, K)
    if not index.transitions:
        return emit, np.zeros((K, K))
    return emit, weights[index.transition_base :].reshape(K, K)


@dataclass
class Model:
    """Tagset + frozen feature index + dense weights, plus metadata."""

    tagset: Tagset
    index: FeatureIndex
    templates: list[FeatureTemplate]
    weights: np.ndarray
    n_columns: int
    template_text: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != self.index.n_features:
            raise ValueError(
                "weight vector length %d does not match feature count %d"
                % (len(self.weights), self.index.n_features)
            )

    @property
    def num_tags(self):
        return len(self.tagset)


def build_model(sequences, template_text: str, n_columns: int, compiled=None) -> Model:
    """Compile templates, scan the corpus (see :func:`build_feature_index` for
    ``compiled``), and return a zero-weight model."""
    templates = compile_templates(template_text)
    if not any(not t.transition for t in templates):
        raise TemplateError("template set contains no observation templates")
    tagset = Tagset.from_corpus(sequences)
    index = build_feature_index(sequences, templates, tagset, n_columns, compiled)
    if index.n_features == 0:
        raise TemplateError("no template fires a feature on the training corpus and there is "
                            "no B template: the model would have no features")
    weights = np.zeros(index.n_features)
    return Model(
        tagset=tagset,
        index=index,
        templates=templates,
        weights=weights,
        n_columns=n_columns,
        template_text=template_text,
    )

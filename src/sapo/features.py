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
emission table and a (K, K) transition table.  Only this module applies the
layout: ``expected_features`` builds feature vectors, ``weight_views`` the tables.

A compiled sequence holds its position features as arrays (raw ids, values and
each position's feature count).  A sparse vector, an E[F] or an update, is an
array of ``SPARSE`` (id, value) records sorted by id and free of duplicates;
``.tolist()`` gives its (id, value) pairs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add

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


def compile_templates(spec_text: str) -> list[FeatureTemplate]:
    """Parse template text into a deterministic template list.

    Grammar, one template per line: ``<id>:%x[<row>,<col>]`` atoms joined
    by ``/``; ``%v[<row>,<col>]`` reads a numeric feature value from a cell
    (at most one per template); lines starting with ``#`` are comments; a
    bare ``B`` line enables tag-bigram transition features.
    """
    templates = []
    names = set()
    for lineno, rawline in enumerate(spec_text.splitlines(), start=1):
        line = rawline.rstrip("\r\n").rstrip()
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
            numeric = m.group(1) == "v"
            n_numeric += numeric
            atoms.append(TemplateAtom(row=int(m.group(2)), col=int(m.group(3)), numeric=numeric))
            pos += len(part) + 1
        if n_numeric > 1:
            raise TemplateError(
                "line %d: at most one %%v value atom per template" % lineno
            )
        if not atoms:
            raise TemplateError("line %d: template %r has no atoms" % (lineno, name))
        templates.append(FeatureTemplate(name=name, atoms=tuple(atoms)))
    return templates


def has_transitions(templates) -> bool:
    return any(t.transition for t in templates)


def _cell(tokens, pos, col, n_columns):
    """Token column lookup; out-of-range rows read a reserved boundary symbol."""
    if col >= n_columns:
        raise TemplateError(
            "unknown column reference %d (data has %d columns)" % (col, n_columns)
        )
    if pos < 0:
        return "_B-%d_" % (-pos)
    if pos >= len(tokens):
        return "_B+%d_" % (pos - len(tokens) + 1)
    return tokens[pos][col]


def position_features(tokens, t, templates, n_columns):
    """Raw (string, value) observation features fired at position ``t``."""
    out = []
    for tpl in templates:
        if tpl.transition:
            continue
        parts = []
        value = 1.0
        skip = False
        for atom in tpl.atoms:
            pos = t + atom.row
            if atom.numeric:
                if pos < 0 or pos >= len(tokens):
                    skip = True  # no numeric cell to read beyond the boundary
                    break
                cell = _cell(tokens, pos, atom.col, n_columns)
                try:
                    value = float(cell)
                except ValueError:
                    raise TemplateError(
                        "template %s: non-numeric cell %r for %%v atom" % (tpl.name, cell)
                    ) from None
                if not math.isfinite(value):
                    raise TemplateError(
                        "template %s: non-finite cell %r for %%v atom" % (tpl.name, cell)
                    )
            else:
                parts.append(_cell(tokens, pos, atom.col, n_columns))
        if skip or value == 0.0:
            continue
        out.append((tpl.name + "=" + "/".join(parts), value))
    return out


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
    """Scan a labeled training corpus once and return the frozen feature index.
    Given a list as ``compiled``, the scan appends each sequence's compiled form."""
    index = FeatureIndex(num_tags=len(tagset), transitions=has_transitions(templates))
    scanned = [_pos_feats(seq.tokens, templates, n_columns, index.add_raw) for seq in sequences]
    index.freeze()
    if compiled is not None:
        for seq, pos_feats in zip(sequences, scanned):
            compiled.append(_compiled(pos_feats, tagset.ids(seq.gold), index))
    return index


@dataclass
class CompiledSequence:
    """One sequence's position features that a frozen feature index holds, in order."""

    gold: list | None  # gold tag ids, or None
    trans_base: int | None  # id of the first transition feature, None without transitions
    K: int  # tagset size
    rids: np.ndarray  # the features' raw ids
    vals: np.ndarray  # their values
    counts: np.ndarray  # (T,): each position's number of features

    @cached_property
    def kernel_bins(self):
        """``expected_features``'s (each feature's position, each row's id for tag 0, each
        feature's bin for tag 0); a row has K bins, one per distinct raw id in order, then
        one per tag prev with transitions: trans_base + prev * K + cur continues the layout."""
        rows = sorted(set(self.rids.tolist()))
        if self.trans_base is not None:
            rows.extend(range(self.trans_base // self.K, self.trans_base // self.K + self.K))
        rows = np.array(rows, dtype=np.intp)
        pos = np.arange(len(self.counts)).repeat(self.counts)
        return pos, rows * self.K, rows.searchsorted(self.rids) * self.K


def _compiled(pos_feats, gold, index) -> CompiledSequence:
    flat = [f for feats in pos_feats for f in feats]
    counts = np.array([len(feats) for feats in pos_feats], dtype=np.intp)
    rids = np.array([rid for rid, _ in flat], dtype=np.intp)
    vals = np.array([value for _, value in flat], dtype=float)
    trans_base = index.transition_base if index.transitions else None
    return CompiledSequence(gold, trans_base, index.num_tags, rids, vals, counts)


def _pos_feats(tokens, templates, n_columns, rid_of):
    """Per position, the (raw_id, value) features whose ``rid_of`` id is not None."""
    out = []
    for t in range(len(tokens)):
        feats = position_features(tokens, t, templates, n_columns)
        out.append([(rid, value) for raw, value in feats if (rid := rid_of(raw)) is not None])
    return out


def _index_sequence(tokens, templates, index, gold):
    """Position features resolved against a frozen index; unseen are dropped."""
    return _compiled(_pos_feats(tokens, templates, len(tokens[0]), index.raw_ids.get), gold, index)


def compile_sequence(m: Model, seq: Sequence, labeled: bool = False) -> CompiledSequence:
    """Index a sequence's position features under the model.

    With ``labeled`` the gold tagging is required and returned as tag ids;
    otherwise ``gold`` is None.
    """
    gold = None
    if labeled:
        if seq.gold is None:
            raise ExtractionError("sample has no gold tagging")
        gold = m.tagset.ids(seq.gold)
    return _index_sequence(seq.tokens, m.templates, m.index, gold)


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
    if len(terms) == 1:
        return sparse_vector(ids, values + 0.0)  # from 0.0: a -0.0 term sums to 0.0
    order = ids.argsort(kind="stable")  # equal ids adjacent, their terms still in order
    ids = ids[order]
    first = np.concatenate(([True], ids[1:] != ids[:-1]))
    return sparse_vector(ids[first], np.bincount(first.cumsum() - 1, values[order]))


def expected_features(cs: CompiledSequence, tag_mass, pairs, pair_mass, K):
    """E[F(x, y)] under a tag mass, as a sparse vector of its nonzero entries.

    ``tag_mass`` is (T, K), each tag's mass at each position, or a tagging (T,) for the
    point mass on it: a feature (raw_id, value) at t adds value * mass to (raw_id, tag).
    With transitions, ``pair_mass[i]`` is added to tag pair ``pairs[i]`` (prev * K + cur).
    Each id sums its terms in position order, and a pair's in the given order, from 0.0
    (``np.bincount`` adds in input order)."""
    pos, bases, bins = cs.kernel_bins
    if tag_mass.ndim == 1:  # value * 1.0 is the value
        ids, terms = bins + tag_mass[pos], cs.vals
    else:
        ids = (bins[:, None] + np.arange(K)).ravel()
        terms = (tag_mass[pos] * cs.vals[:, None]).ravel()
    if cs.trans_base is not None:  # pairs are the bins of the last K rows
        ids = np.concatenate((ids, pairs + (len(bases) - K) * K))
        terms = np.concatenate((terms, pair_mass))
    sums = np.bincount(ids, terms, len(bases) * K)
    nz = (sums != 0.0).nonzero()[0]
    return sparse_vector(bases[nz // K] + nz % K, sums[nz])


def path_items(cs: CompiledSequence, path, K):
    """Global feature vector F(x, y) of one tagging: E[F] under a point mass."""
    y = np.array(path, dtype=np.intp)
    return expected_features(cs, y, y[:-1] * K + y[1:], np.ones(len(y) - 1), K)


def extract_features(x: Sequence, y, templates, index: FeatureIndex):
    """Global feature vector of (x, y) as a sorted sparse (id, value) list.

    Equals the position-wise sum of emission features plus the tag-bigram
    transition counts.  Raw strings missing from the frozen index are
    silently omitted; exact zero values are not stored.
    """
    if len(y) != len(x):
        raise ExtractionError(
            "tagging length %d does not match sequence length %d" % (len(y), len(x))
        )
    K = index.num_tags
    for tag_id in y:
        if not (0 <= tag_id < K):
            raise ExtractionError("tag id %r outside tagset of size %d" % (tag_id, K))
    return path_items(_index_sequence(x.tokens, templates, index, None), y, K).tolist()


def weight_views(weights: np.ndarray, index: FeatureIndex):
    """(n_raw, K) emission and (K, K) transition views of a weight vector.

    The transition table is a zero array when transitions are off.
    """
    K = index.num_tags
    emit = weights[: index.n_raw * K].reshape(index.n_raw, K)
    if not index.transitions:
        return emit, np.zeros((K, K))
    return emit, weights[index.transition_base :].reshape(K, K)


def dot_sparse(weights: np.ndarray, items) -> float:
    """Dot product of dense weights with a sparse vector or (id, value) list, in id order."""
    items = np.asarray(items, SPARSE)
    return reduce(add, (weights[items["id"]] * items["value"]).tolist(), 0.0)


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
    weights = np.zeros(index.n_features)
    return Model(
        tagset=tagset,
        index=index,
        templates=templates,
        weights=weights,
        n_columns=n_columns,
        template_text=template_text,
    )


def score_sequence(m: Model, x: Sequence, y) -> float:
    """Linear score w·F(x, y) of a tagging under the model."""
    return dot_sparse(m.weights, extract_features(x, y, m.templates, m.index))

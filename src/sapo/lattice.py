"""Score lattices and n-best decoding for linear chains.

All searches order candidates by (score descending, tag-id sequence
lexicographically ascending).  Scores are accumulated left to right as
``(g + transition) + emission`` in every code path, so a tagging gets the
same float score in every search, and A*, full-width beam and enumeration
agree on the scores rank by rank.  The order among equal or nearly equal
scores is not guaranteed: A* ranks prefixes by ``g + h``, which rounds
differently per prefix, and beam orders tied taggings by their prefixes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .features import Model, Sequence, compile_sequence, weight_views

# Re-exported: the benchmark tracer's tests (bench/test_layertrace.py) check
# that rebinding ``position_features`` reaches this namespace too.
from .features import position_features  # noqa: F401, E402

ENUMERATION_LIMIT = 10**6


@dataclass
class Lattice:
    """Per-position emission scores and tag-transition scores."""

    emit: np.ndarray  # (T, K)
    trans: np.ndarray  # (K, K)

    @property
    def T(self):
        return self.emit.shape[0]

    @property
    def K(self):
        return self.emit.shape[1]


@dataclass
class NBestList:
    """Ranked candidate taggings with scores and (optional) probabilities.

    ``exhausted`` is true when the list contains every possible tagging,
    i.e. K^T did not exceed the number requested.
    """

    paths: list[tuple[int, ...]]
    scores: list[float]
    probs: list[float] | None
    n_requested: int
    exhausted: bool

    @property
    def entries(self):
        probs = self.probs if self.probs is not None else [None] * len(self.paths)
        return list(zip(self.paths, self.scores, probs))

    def __len__(self):
        return len(self.paths)


def build_lattice(m: Model, x: Sequence) -> Lattice:
    """Emission/transition score tables for one sequence under the model."""
    return compiled_lattice(compile_sequence(m, x).pos_feats, weight_views(m.weights, m.index))


def compiled_lattice(pos_feats, views, scale=1.0) -> Lattice:
    """Lattice of compiled position features under (emission, transition)
    weight views, with every score multiplied by ``scale``."""
    emit_w, trans_w = views
    emit = emission_scores(pos_feats, emit_w, emit_w.shape[1])
    if scale != 1.0:
        emit *= scale
        return Lattice(emit=emit, trans=trans_w * scale)
    return Lattice(emit=emit, trans=trans_w.copy())


def emission_scores(pos_feats, emission_weights, K) -> np.ndarray:
    emit = np.zeros((len(pos_feats), K))
    for t, feats in enumerate(pos_feats):
        row = emit[t]
        for rid, value in feats:
            if value == 1.0:
                row += emission_weights[rid]
            else:
                row += value * emission_weights[rid]
    return emit


def path_score(l: Lattice, path) -> float:
    """Score of one tagging, accumulated in the canonical order."""
    s = float(l.emit[0, path[0]])
    for t in range(1, l.T):
        s = s + float(l.trans[path[t - 1], path[t]])
        s = s + float(l.emit[t, path[t]])
    return s


def backward_viterbi(l: Lattice) -> np.ndarray:
    """Best-suffix-completion scores h, excluding the current emission.

    h[T-1][k] = 0 and h[t][k] = max_j (trans[k][j] + emit[t+1][j] + h[t+1][j]);
    an exact (hence admissible and consistent) heuristic for forward search.
    """
    T, K = l.T, l.K
    h = np.zeros((T, K))
    for t in range(T - 2, -1, -1):
        h[t] = (l.trans + (l.emit[t + 1] + h[t + 1])[None, :]).max(axis=1)
    return h


def viterbi(l: Lattice):
    """Highest-scoring tagging; ties go to the lexicographically smallest.

    Walks forward greedily under the exact suffix scores, picking the
    smallest optimal tag at each position, which yields the lex-smallest
    maximizing path.
    """
    h = backward_viterbi(l)
    first = int(np.argmax(l.emit[0] + h[0]))
    path = [first]
    for t in range(1, l.T):
        prev = path[-1]
        path.append(int(np.argmax(l.trans[prev] + l.emit[t] + h[t])))
    return path, path_score(l, path)


def viterbi_tags(m: Model, compiled, weights) -> list[list[str]]:
    """Best tagging of each compiled sequence under ``weights``, as tag strings."""
    views = weight_views(weights, m.index)
    tag = m.tagset.tag
    return [[tag(t) for t in viterbi(compiled_lattice(cs.pos_feats, views))[0]] for cs in compiled]


def _count_at_most(K, T, cap):
    """min(K**T, cap + 1) without building huge integers."""
    total = 1
    for _ in range(T):
        total *= K
        if total > cap:
            return cap + 1
    return total


def astar_nbest(l: Lattice, n: int) -> NBestList:
    """Exact top-n taggings via forward A* with the backward-Viterbi heuristic.

    Partial hypotheses are keyed by (prefix score + h, then the tag ids),
    so complete paths pop in score order; paths with equal or nearly equal
    scores may pop out of tag-id order.  Probabilities are left unfilled.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    T, K = l.T, l.K
    emit = l.emit.tolist()
    trans = l.trans.tolist()
    h = backward_viterbi(l).tolist()
    heap = []
    e0, h0 = emit[0], h[0]
    for k in range(K):
        heap.append((-(e0[k] + h0[k]), (k,), e0[k]))
    heapq.heapify(heap)
    paths, scores = [], []
    while heap and len(paths) < n:
        _negf, path, g = heapq.heappop(heap)
        t = len(path)
        if t == T:
            paths.append(path)
            scores.append(g)
            continue
        trow = trans[path[-1]]
        erow = emit[t]
        hrow = h[t]
        for j in range(K):
            g2 = (g + trow[j]) + erow[j]
            heapq.heappush(heap, (-(g2 + hrow[j]), path + (j,), g2))
    exhausted = _count_at_most(K, T, n) <= n
    return NBestList(paths=paths, scores=scores, probs=None, n_requested=n, exhausted=exhausted)


def beam_nbest(l: Lattice, n: int, beam: int) -> NBestList:
    """Approximate top-n via width-limited breadth-first search.

    Hypotheses at every step are kept by a stable sort on descending
    score, so with a beam wide enough to disable pruning the scores equal
    those of :func:`astar_nbest` rank by rank; taggings with equal scores
    may come in another order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    T, K = l.T, l.K
    scores = l.emit[0].copy()
    tags = np.arange(K, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")[:beam]
    scores, tags = scores[order], tags[order]
    # per-step backpointers; paths are reconstructed only for the survivors
    back = [np.zeros(len(tags), dtype=np.int64)]
    history = [tags]
    for t in range(1, T):
        cand = scores[:, None] + l.trans[tags, :]
        cand += l.emit[t][None, :]
        flat = cand.ravel()
        order = np.argsort(-flat, kind="stable")[:beam]
        scores = flat[order]
        tags = order % K
        back.append(order // K)
        history.append(tags)
    keep = min(n, len(scores))
    paths = []
    for i in range(keep):
        rev = []
        idx = i
        for t in range(T - 1, -1, -1):
            rev.append(int(history[t][idx]))
            idx = int(back[t][idx])
        paths.append(tuple(reversed(rev)))
    exhausted = _count_at_most(K, T, n) <= n
    return NBestList(
        paths=paths,
        scores=[float(s) for s in scores[:keep]],
        probs=None,
        n_requested=n,
        exhausted=exhausted,
    )


def enumerate_all(l: Lattice) -> NBestList:
    """All K^T taggings with exact scores, in the global tie-break order.

    Test oracle for the search routines; guarded against large instances.
    """
    T, K = l.T, l.K
    total = _count_at_most(K, T, ENUMERATION_LIMIT)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            "K^T exceeds the enumeration guard of %d paths" % ENUMERATION_LIMIT
        )
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // K ** (T - 1 - t)) % K for t in range(T)]
    scores = l.emit[0][cols[0]].astype(np.float64)
    for t in range(1, T):
        scores = scores + l.trans[cols[t - 1], cols[t]]
        scores = scores + l.emit[t][cols[t]]
    # cols enumerate paths in lexicographic order, so a stable sort on
    # descending score realizes the global tie-break.
    order = np.argsort(-scores, kind="stable")
    paths_mat = np.stack(cols, axis=1)[order]
    return NBestList(
        paths=[tuple(int(v) for v in row) for row in paths_mat],
        scores=[float(s) for s in scores[order]],
        probs=None,
        n_requested=total,
        exhausted=True,
    )

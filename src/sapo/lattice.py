"""Score lattices and top-n search for linear chains.

One list-Viterbi kernel (Seshadri & Sundberg 1994) serves every decoder:
:func:`viterbi` is its top 1, :func:`astar_nbest` its exact top n and
:func:`beam_nbest` its beam variant.  Taggings rank by (score descending, tag
ids lexicographically ascending).  Scores accumulate as ``(g + transition) +
emission`` everywhere, so the exact scores equal :func:`enumerate_all`'s rank
by rank.  Unpruned (n or beam width >= K^T), the path lists are identical
too; otherwise paths differ only where the float accumulation makes a tie.

Emission rows come from :func:`emission_scores`, one in-order ``np.bincount``
over a sequence's (position, tag) cells, or a stack's.  An ``emit`` of shape
(B, T, K) is a stack of B equal-length lattices sharing ``trans``, built by
:func:`length_buckets`.  :func:`viterbi`, :func:`path_score`,
:func:`backward_viterbi` and :func:`astar_nbest` take stacks and return one
result per lattice, for :func:`astar_nbest` one NBestList each.  Exact search
runs a whole stack at once.  Where n*K^2 exceeds ``_DENSE_CELLS`` the ``g + h``
cut leaves each lattice its own number of survivors, padded to the stack's
largest count.  :func:`beam_nbest` takes no stack.  The search's n = 1 step
treats one lattice as a stack of one.  :func:`searched` is every read path's
bucketed search, and its one check that the scores are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import Model, Sequence, compile_sequence, weight_views

# Re-exported: the benchmark tracer's tests (bench/test_layertrace.py) check
# that rebinding ``position_features`` reaches this namespace too.
from .features import position_features  # noqa: F401, E402

ENUMERATION_LIMIT = 10**6
# Cells per step (n*K^2) above which the g + h cut beats sorting every tag's n*K.
_DENSE_CELLS = 1024
# Bound on B*K*max(n*K, T) for a stack: the cells of its tables and per-step temporaries.
_STACK_CELLS = 2**18


class NonFiniteError(RuntimeError):
    """Weights, or a score computed from them, became non-finite.

    ``sample_index`` is the sample the check names, for the weights the last one
    visited before the failed check (None when no sample is to blame), ``epoch``
    the training epoch (None outside training), and ``window`` the number of
    samples visited since the last passing check.  ``what`` says what was not finite.
    """

    def __init__(self, sample_index, epoch, window=1, what=None):
        self.what = what or "weights detected after sample %d" % sample_index
        msg = "non-finite " + self.what
        if epoch is not None:
            msg += " in epoch %d" % epoch
        if window > 1:
            msg += " (within the %d samples visited since the last finite check)" % window
        super().__init__(msg)
        self.sample_index = sample_index
        self.epoch = epoch
        self.window = window


@dataclass
class Lattice:
    """Per-position emission scores and tag-transition scores."""

    emit: np.ndarray  # (T, K), or (B, T, K) for a stack of lattices
    trans: np.ndarray  # (K, K)

    @property
    def T(self):
        return self.emit.shape[-2]

    @property
    def K(self):
        return self.emit.shape[-1]


@dataclass
class NBestList:
    """Ranked candidate taggings with scores and (optional) probabilities.

    ``exhausted`` is true when the list contains all K^T taggings.
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
    return compiled_lattice(compile_sequence(m, x), weight_views(m.weights, m.index))


def compiled_lattice(cs, views, scale=1.0) -> Lattice:
    """Lattice of a compiled sequence under (emission, transition) weight
    views, with every score multiplied by ``scale``."""
    emit_w, trans_w = views
    emit = emission_scores([cs], emit_w)
    emit *= scale
    return Lattice(emit=emit, trans=trans_w * scale)


def length_buckets(compiled, views, n=1):
    """(indices, stacked lattice) of each group of equal-length compiled
    sequences, split to keep within ``_STACK_CELLS`` both a stack's tables
    (B*T*K cells) and the up to B*n*K^2 cells of its top-n search step, with
    or without the ``g + h`` cut: the cut keeps at most n survivors per tag."""
    emit_w, trans_w = views
    K = emit_w.shape[1]
    by_length = {}
    for i, cs in enumerate(compiled):
        by_length.setdefault(len(cs.counts), []).append(i)
    for T, members in by_length.items():
        size = max(1, _STACK_CELLS // (K * max(n * K, T)))
        for idx in (members[lo : lo + size] for lo in range(0, len(members), size)):
            emit = emission_scores([compiled[i] for i in idx], emit_w)
            yield idx, Lattice(emit=emit.reshape(len(idx), T, K), trans=trans_w)


def emission_scores(compiled, emission_weights) -> np.ndarray:
    """Emission rows of every position of the compiled sequences, in order.

    One ``np.bincount`` over (position, tag) bins: bin p*K + k adds value *
    weight for each of position p's features in stored order, from 0.0, so a
    row is bit for bit a sequential sum (which ``np.add.reduceat`` is not).
    """
    rids = np.concatenate([cs.rids for cs in compiled])
    vals = np.concatenate([cs.vals for cs in compiled])
    counts = np.concatenate([cs.counts for cs in compiled])
    T, K = len(counts), emission_weights.shape[1]
    bins = np.arange(T * K).reshape(T, K).repeat(counts, axis=0)  # each feature's K bins
    emit = np.bincount(bins.ravel(), (emission_weights[rids] * vals[:, None]).ravel(), T * K)
    return emit.reshape(T, K).astype(float, copy=False)  # int64 zeros when no feature fires


def path_score(l: Lattice, path):
    """Score of one tagging, accumulated in the canonical order.  For a stack
    of lattices, ``path`` holds B taggings and the result is a list of B scores."""
    emit = l.emit.reshape(-1, l.T, l.K)
    paths = np.reshape(path, (len(emit), l.T))
    rows = np.arange(len(emit))
    s = emit[rows, 0, paths[:, 0]]
    for t in range(1, l.T):
        s = s + l.trans[paths[:, t - 1], paths[:, t]]
        s = s + emit[rows, t, paths[:, t]]
    return float(s[0]) if l.emit.ndim == 2 else s.tolist()


def backward_viterbi(l: Lattice) -> np.ndarray:
    """Best-suffix-completion scores h, excluding the current emission, in the
    shape of ``l.emit`` (a lattice or a stack).

    h[T-1][k] = 0 and h[t][k] = max_j (trans[k][j] + emit[t+1][j] + h[t+1][j]):
    the exact bound of the search's ``g + h`` cut, up to rounding.  The max runs
    over the rows of a (j, k) table, which NumPy takes faster than over its columns.
    """
    emit = l.emit.reshape(-1, l.T, l.K).transpose(1, 0, 2)  # (T, B, K)
    trans = np.ascontiguousarray(l.trans.T)
    h = np.zeros(emit.shape)
    for t in range(l.T - 2, -1, -1):
        h[t] = (trans + (emit[t + 1] + h[t + 1])[:, :, None]).max(axis=1)
    return h.transpose(1, 0, 2).reshape(l.emit.shape)


def _cuts(n, K):
    """Whether exact top-n search prunes by ``g + h``: its n*K^2 step cells
    exceed ``_DENSE_CELLS``.  The lattices of a stack then keep their own
    survivor counts."""
    return n > 1 and n * K * K > _DENSE_CELLS


def _search(l: Lattice, n: int, width=None):
    """The one search: exact top n or, with ``width``, beam.

    Survivors are prefixes in lexicographic order of their tag ids, so the
    index ``rank*K + tag`` of an extension in the flattened (survivors, K)
    score table is its lex key, and kept keys stay sorted.  Exact search
    keeps each tag's n best extensions by (score before the emission they
    share, descending; rank ascending); float addition is monotone, so every
    prefix of a top-n tagging survives.  Beam keeps the ``width`` best, ties by key.

    Exact search also takes a stack of B lattices: the table holds the
    lattices' tables in turn, each of the same number R of rows, and a step
    selects within each lattice.  Without the ``g + h`` cut every lattice keeps
    the same number of survivors.  With it each keeps its own: its real
    survivors first, in key order, then -inf pads up to the stack's largest
    count.  Pads are told by that count, never by their score, so a lattice's
    keys are exactly its keys searched alone, non-finite scores included.
    Returns (paths, scores, sizes): the lattices' top-n lists one after
    another, and each list's length.
    """
    T, K, trans = l.T, l.K, l.trans
    B = l.emit.size // (T * K)
    cut = width is None and _cuts(n, K)
    if l.emit.ndim == 3 and width is not None:
        raise ValueError("beam search takes one lattice, not a stack")
    emit = l.emit.reshape(B, T, K).transpose(1, 0, 2).reshape(T, B * K)
    offset = np.arange(K)  # key of (row 0, tag); at n = 1, plus each lattice's first key
    if B > 1 and n == 1:
        start = np.repeat(np.arange(0, B * K, K), K)  # first column of a survivor's lattice
        offset = offset + start[::K, None] * K
    if cut:
        eh = backward_viterbi(l).reshape(B, T, 1, K).transpose(1, 0, 2, 3)  # (T, B, 1, K)
        eh[1:] += emit[1:].reshape(T - 1, B, 1, K)  # from step 1 on, cand lacks the emission
        # g + h and the float score of the completion it bounds each lie within
        # T*eps*span of the exact sum; the cut needs 4*T*eps*span, taken 4x over.
        span = np.abs(l.emit.reshape(B, T, K)).max(axis=2).sum(axis=1)
        span += (T - 1) * np.abs(trans).max()
        margin = 16 * (T + 1) * np.finfo(float).eps * span[:, None]
        real = None  # each lattice's survivor count, while the counts differ
    cand = emit[:1]
    history = []
    for t in range(T):
        if t:
            # g + trans.  Exact search adds the emission after selecting.
            cand = trans.take(tags, 0)
            cand += g[:, None]
            if width is not None:
                cand += emit[t]
        keys = None  # None keeps every extension
        if cut:
            rows = cand.size // (B * K)  # per lattice, pads included
            live = None if real is None else np.arange(rows * K) < real[:, None] * K
            if rows * K > n:
                # An extension whose best completion g + h is below its lattice's n-th
                # largest such bound by more than the margin cannot reach the top n.
                bound = (cand.reshape(B, rows, K) + eh[t]).reshape(B, -1)
                kth = rows * K - n
                nth = bound.copy()
                nth.partition(kth)
                keep = bound >= nth[:, kth, None] - margin
                if live is not None:  # a lattice of at most n extensions keeps them all
                    keep = np.where(real[:, None] * K > n, keep & live, live)
                keys = keep.ravel().nonzero()[0]
                if len(keys) > n and (B == 1 or np.bincount(keys // (rows * K)).max() > n):
                    grid = keep.reshape(B, rows, K)
                    near = (grid.sum(1).max(1) > n).nonzero()[0]
                    if len(near):  # near-ties: keep each tag's n best, lowest ranks first
                        kept = np.where(grid[near], cand.reshape(B, rows, K)[near], -np.inf)
                        nth = np.partition(kept, rows - n, axis=1)[:, rows - n, None]
                        tied = (kept == nth) & grid[near]
                        best = kept > nth
                        best |= tied & (tied.cumsum(1) <= n - best.sum(1, keepdims=True))
                        grid[near] = best
                        keys = keep.ravel().nonzero()[0]
            elif live is not None:
                keys = live.ravel().nonzero()[0]
        elif width is None:
            if n == 1 and len(cand) > 1:  # each tag's best row, per lattice
                rows = cand.reshape(B, K, K).argmax(1)
                keys = np.sort(rows * K + offset, axis=1).ravel()
            elif len(cand) > B * n:  # each tag's n best rows, per lattice
                if B > 1:
                    rows = (-cand.reshape(B, -1, K)).argsort(1, kind="stable")[:, :n]
                    rows += np.arange(0, len(cand), len(cand) // B)[:, None, None]
                else:  # the B = 1 case of the above, without its per-step overhead
                    rows = (-cand).argsort(0, kind="stable")[:n]
                keys = np.sort(rows * K + offset, axis=None)
        elif cand.size > width:
            flat = cand.ravel()
            thr = np.partition(flat, flat.size - width)[flat.size - width]
            keys = (flat >= thr).nonzero()[0]
            if len(keys) > width:  # ties at the threshold: drop the highest keys' ones
                keys = np.delete(keys, (flat.take(keys) == thr).nonzero()[0][width - len(keys) :])
        if keys is None:
            keys = np.arange(cand.size)
        g = cand.take(keys)
        tags = keys % K
        if B > 1 and n > 1:
            lattice = keys // (cand.size // B)
            start = lattice * K
        if t and width is None:
            g += emit[t].take(tags + start if B > 1 else tags)
        if cut and B > 1:
            counts = np.bincount(lattice, minlength=B)
            R = counts.max()
            real = None if counts.min() == R else counts
            if real is not None:  # pad each lattice's survivors to R
                at = np.repeat(np.arange(0, B * R, R) - counts.cumsum() + counts, counts)
                at += np.arange(len(keys))
                padded = np.full(B * R, -np.inf)
                padded[at] = g
                g, survivors = padded, keys
                keys = np.zeros(B * R, keys.dtype)  # a pad's key is 0
                keys[at] = survivors
                tags = keys % K
        history.append(keys)
    if n == 1:  # argmax per lattice of a stack
        top = g.reshape(B, -1).argmax(1) + np.arange(B) * (g.size // B)
        sizes = [1] * B
    elif cut and real is not None:  # each lattice's n best among its real survivors
        R = g.size // B
        top = [(-g[b * R : b * R + r]).argsort(kind="stable")[:n] + b * R
               for b, r in enumerate(real.tolist())]
        sizes = [len(own) for own in top]
        top = np.concatenate(top)
    elif B == 1:  # as below, without its overhead
        top = (-g).argsort(kind="stable")[:n]
        sizes = [len(top)]
    else:  # each lattice's n best
        R = g.size // B  # 0 when NaN bounds kept no survivor in any lattice
        top = (-g.reshape(B, R)).argsort(1, kind="stable")[:, :n]
        sizes = [top.shape[1]] * B
        top = (top + np.arange(B)[:, None] * R).ravel()
    scores = g.take(top).tolist()
    history = [keys.tolist() for keys in history]
    paths = []
    for i in top.tolist():
        path = [0] * T
        for t in range(T - 1, -1, -1):
            i, path[t] = divmod(history[t][i], K)
        paths.append(tuple(path))
    return paths, scores, sizes


def viterbi(l: Lattice):
    """Highest-scoring tagging and its exact score, the search's top 1; ties
    go to the lexicographically smallest (see the module note on rounding).
    For a stack of lattices, the list of their (path, score) pairs."""
    paths, scores, _ = _search(l, 1)
    return list(zip(paths, scores)) if l.emit.ndim == 3 else (list(paths[0]), scores[0])


def viterbi_tags(m: Model, compiled, weights) -> list[list[str]]:
    """Best tagging of each compiled sequence under ``weights``, as tag strings."""
    tags = m.tagset.tags
    found = searched(compiled, weight_views(weights, m.index), lambda lat, n: viterbi(lat))
    return [[tags[t] for t in path] for _, (path, _) in found]


def searched(compiled, views, search, n=1):
    """(lattice, result) of each compiled sequence, in order, ``result`` its entry in
    ``search(stack, n)`` over its stack of :func:`length_buckets`: an NBestList, or
    a :func:`viterbi` (path, score) pair.  A sequence fails when its emission rows
    or its searched scores are not all finite, or when NaN bounds cut its list below
    min(n, K^T) scores.  Every bucket is checked before NonFiniteError is raised,
    naming the lowest-numbered failing sequence."""
    found, failed = [None] * len(compiled), []
    for idx, lat in length_buckets(compiled, views, n):
        m = min(n, _count_at_most(lat.K, lat.T, n))
        rows_ok = np.isfinite(lat.emit.reshape(len(idx), -1)).all(axis=1).tolist()
        for b, (i, r, ok) in enumerate(zip(idx, search(lat, n), rows_ok)):
            scores = r.scores if isinstance(r, NBestList) else r[1:]
            if ok and len(scores) == m and all(map(math.isfinite, scores)):
                found[i] = Lattice(lat.emit[b], lat.trans), r
            else:
                failed.append(i)
    if failed:
        raise NonFiniteError(min(failed), None, what="scores of sequence %d" % min(failed))
    return found


def _count_at_most(K, T, cap):
    """min(K**T, cap + 1) without building huge integers."""
    total = 1
    for _ in range(T):
        total *= K
        if total > cap:
            return cap + 1
    return total


def _nbest_lists(l: Lattice, n, paths, scores, sizes):
    """The search's output as the NBestList of a lattice, or a stack's list of them."""
    lists, lo = [], 0
    for m in sizes:
        exhausted = _count_at_most(l.K, l.T, m) == m
        lists.append(NBestList(paths[lo : lo + m], scores[lo : lo + m], None, n, exhausted))
        lo += m
    return lists[0] if l.emit.ndim == 2 else lists


def astar_nbest(l: Lattice, n: int) -> NBestList:
    """Exact top-n taggings (the ``--search astar`` mode), probabilities left
    unfilled.  Scores equal :func:`enumerate_all`'s first n; at n >= K^T so
    do the paths.  For a stack of lattices, the list of their NBestLists from
    one search of the whole stack, with or without the ``g + h`` cut."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _nbest_lists(l, n, *_search(l, n))


def beam_nbest(l: Lattice, n: int, beam: int) -> NBestList:
    """Approximate top-n: the search keeping the ``beam`` best prefixes per
    step.  With ``beam`` >= K^T it prunes nothing and its list equals the
    first n of :func:`enumerate_all`, paths and scores."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    return _nbest_lists(l, n, *_search(l, n, beam))


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

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
(B, T, K) is a stack of B lattices sharing ``trans``, built by
:func:`length_buckets`; its ``lengths`` are the lattices' own lengths, longest
first, each zero-padded to T.  A (T, K) lattice is a stack of one: every pass but
:func:`beam_nbest` and :func:`enumerate_all` takes either, and returns one result
per lattice of a stack.  The recursions step through :meth:`Lattice.walk`, which
gives each step only the lattices still active, so no pad cell is computed and
every result is bit for bit the lattice's own, up to a NaN's sign bit; the forward
and the ``g + h`` bound reduce whole (lattice, tag) planes (:func:`_plane_tables`).
Exact search runs a whole stack at once and finishes each lattice at its own last
step.  Where n*K^2 exceeds ``_DENSE_CELLS`` the ``g + h`` cut leaves each lattice its
own number of survivors, padded to the stack's largest count.  :func:`searched` is
every read path's stacked search, and its one check that the scores are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import Model, Sequence, compile_sequence, tag_table, weight_views

# Re-exported: the benchmark tracer's tests (bench/test_layertrace.py) check
# that rebinding ``position_features`` reaches this namespace too.
from .features import position_features  # noqa: F401, E402

ENUMERATION_LIMIT = 10**6
# Cells per step (n*K^2) above which the g + h cut beats sorting every tag's n*K.
_DENSE_CELLS = 1024
# Bound on B*K*n*max(K, T) for a stack: the cells of its tables (B*T*K), of its top-n
# search step (B*n*K^2), of that search's path history (B*T*n*K) and of the tiled
# transitions and step table of its forward and bound (B*K^2 each).  The diagnostic's
# forward-backward splits a stack by the same rule, its edge cells (B*T*K^2).  At 2^16
# the K=45 n = 5 search of the benchmark's tag corpus ran 1.34x as long.
_STACK_CELLS = 2**18
# Bound on B*K*max(K, T) for a stack, and on a part of its emission build: one step's
# (B, K, K) table in 512 KB of float64, a quarter of a 2 MB L2 cache.  It is _STACK_CELLS
# / 4, so the tighter bound only where n < 4; there it made the K=45 Viterbi and forward
# passes over the benchmark's corpora about 0.85x as long.
_CACHE_CELLS = 2**16


class NonFiniteError(RuntimeError):
    """Weights, or a score computed from them, became non-finite.

    ``sample_index`` is the sample the check names, for the weights the one whose
    update made them non-finite (None when no sample is to blame), and ``epoch``
    the training epoch (None outside training).  ``what`` says what was not finite.
    """

    def __init__(self, sample_index, epoch, what=None):
        self.what = what or "weights detected after sample %d" % sample_index
        msg = "non-finite " + self.what
        if epoch is not None:
            msg += " in epoch %d" % epoch
        super().__init__(msg)
        self.sample_index = sample_index
        self.epoch = epoch


@dataclass
class Lattice:
    """Per-position emission scores and tag-transition scores.

    A stack's ``lengths`` are its lattices' own lengths, longest first: lattice b
    holds ``emit[b, :lengths[b]]`` and zeros after it.  None, the default, stands
    for every lattice having length T, and is stored as such: ``[T] * B``, or
    ``[T]`` for a single lattice."""

    emit: np.ndarray  # (T, K), or (B, T, K) for a stack of lattices
    trans: np.ndarray  # (K, K)
    lengths: list | None = None

    def __post_init__(self):
        shape = self.emit.shape
        if len(shape) not in (2, 3) or 0 in shape:
            raise ValueError("emit: shape %s, not (T, K) for a lattice or (B, T, K) for a"
                             " stack, each size at least 1" % (shape,))
        if self.trans.shape != shape[-1:] * 2:
            raise ValueError("trans: shape %s, not %s" % (self.trans.shape, shape[-1:] * 2))
        B = shape[0] if len(shape) == 3 else None
        if self.lengths is None:
            self.lengths = [shape[-2]] * (B or 1)
            return
        self.lengths = [int(L) for L in self.lengths]
        if len(self.lengths) != B:
            raise ValueError("lengths: %d lengths for %s" % (
                len(self.lengths), "a single lattice" if B is None else "a stack of %d" % B))
        for b, L in enumerate(self.lengths):
            if not 1 <= L <= self.T:
                raise ValueError("lengths: lattice %d has length %d, outside 1..%d"
                                 % (b, L, self.T))
            if b and L > self.lengths[b - 1]:
                raise ValueError("lengths: lattice %d (length %d) is longer than lattice %d"
                                 " (length %d); a stack holds its longest first" % (
                                     b, L, b - 1, self.lengths[b - 1]))

    @property
    def T(self):
        return self.emit.shape[-2]

    @property
    def K(self):
        return self.emit.shape[-1]

    def runs(self):
        """(t0, t1, a) for each run of steps t0 <= t < t1 in which the same lattices
        are active: the first a, as the longest come first."""
        runs, t0 = [], 0
        for b in range(len(self.lengths) - 1, -1, -1):  # shortest first
            if self.lengths[b] > t0:
                runs.append((t0, self.lengths[b], b + 1))
                t0 = self.lengths[b]
        return runs

    def walk(self, *tables, backward=False):
        """Each run's rows t0:t1, its steps of a forward pass (1 to T-1) or, with
        ``backward``, of a backward one (T-2 down to 0, step t taking the lattices
        active at t + 1), and the ``tables`` (lattice axis second) cut to its active
        lattices; a lone one gets its column alone, so ``...`` step bodies serve both."""
        for t0, t1, a in self.runs()[::-1] if backward else self.runs():
            steps = range(t1 - 2, max(t0 - 1, 0) - 1, -1) if backward else range(max(t0, 1), t1)
            yield slice(t0, t1), steps, [x[:, 0] if a == 1 else x[:, :a] for x in tables]


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
    return Lattice(emission_scores([cs], views[0]) * scale, views[1] * scale)


def length_buckets(compiled, views, n=1):
    """(indices, stacked lattice) of each group of compiled sequences.  The
    sequences are sorted longest first (a stable sort) and split to keep within
    ``_STACK_CELLS`` a stack's tables (B*T*K cells, T its first and longest
    length), the up to B*n*K^2 cells of its top-n search step and the up to
    B*T*n*K keys of that search's path history, with or without the ``g + h``
    cut: the cut keeps at most n survivors per tag.  B*K*max(K, T), its tables and
    one step's, also stays within ``_CACHE_CELLS``; that binds only below n = 4.
    Each stack's emission rows are zero-padded to (B, T, K), with the sequences'
    own lengths, and built a few sequences at a time (:func:`_feature_parts`).
    Which stack holds a sequence changes none of its results."""
    emit_w, trans_w = views
    K = emit_w.shape[1]
    lengths = [len(cs.counts) for cs in compiled]
    order = sorted(range(len(compiled)), key=lengths.__getitem__, reverse=True)
    for span in _stack_parts([lengths[i] for i in order], lambda T: K * n * max(K, T),
                             lambda T: K * max(K, T)):
        idx = order[span]
        own = [lengths[i] for i in idx]
        T = own[0]
        emit = np.zeros((len(idx), T, K))
        parts = _feature_parts([compiled[i] for i in idx], K)
        emit[np.arange(T) < np.array(own)[:, None]] = np.concatenate(
            [emission_scores(part, emit_w) for part in parts])
        yield idx, Lattice(emit, trans_w, own)


def _stack_parts(lengths, cells, step=None):
    """Slices of lattices of the given lengths, longest first, into consecutive parts
    of as many as count x cells(its first length) <= ``_STACK_CELLS`` and, given
    ``step``, count x step(its first length) <= ``_CACHE_CELLS`` allow, or one."""
    lo = 0
    while lo < len(lengths):
        most = _STACK_CELLS // cells(lengths[lo])
        if step:
            most = min(most, _CACHE_CELLS // step(lengths[lo]))
        hi = lo + max(1, most)
        yield slice(lo, hi)
        lo = hi


def _feature_parts(compiled, K):
    """The compiled sequences in consecutive parts of at most min(``_STACK_CELLS``,
    ``_CACHE_CELLS``) (feature, tag) cells each, or of one sequence: the bound on the
    (features, K) temporaries of :func:`emission_scores`, which a stack's cells do
    not bound."""
    part, cells, most = [], 0, min(_STACK_CELLS, _CACHE_CELLS)
    for cs in compiled:
        if part and cells + len(cs.rids) * K > most:
            yield part
            part, cells = [], 0
        part.append(cs)
        cells += len(cs.rids) * K
    yield part


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
    of lattices, ``path`` holds B taggings, each of its lattice's own length,
    and the result is a list of B scores.  A tagging of another length, or a tag id
    not a whole number in 0..K-1, raises ``features.ExtractionError`` (``tag_table``)."""
    paths = [path] if l.emit.ndim == 2 else list(path)
    y = tag_table(paths, l.lengths, l.K)
    (B, T), K = y.shape, l.K
    # emit[0], then each step's transition and emission: a running sum, zeros past the end.
    ends = np.multiply(l.lengths, 2) - 2
    terms = np.empty((B, 2 * T - 1))
    terms[:, ::2] = l.emit.reshape(B, l.T, K)[np.arange(B)[:, None], np.arange(T), y]
    terms[:, 1::2] = l.trans[y[:, :-1], y[:, 1:]]
    terms[np.arange(2 * T - 1) > ends[:, None]] = 0.0
    s = np.cumsum(terms, axis=1)[np.arange(B), ends]
    return float(s[0]) if l.emit.ndim == 2 else s.tolist()


def backward_viterbi(l: Lattice) -> np.ndarray:
    """Best-suffix-completion scores h, excluding the current emission, in the
    shape of ``l.emit`` (a lattice or a stack), 0 from each lattice's last step on.

    h[T-1][k] = 0 and h[t][k] = max_j (trans[k][j] + emit[t+1][j] + h[t+1][j]):
    the exact bound of the search's ``g + h`` cut, up to rounding.  A step takes the
    max over j of a (j, b, k) table from :func:`_plane_tables`, plane by plane.
    """
    emit = l.emit.reshape(-1, l.T, l.K).transpose(1, 0, 2)  # (T, B, K)
    h = np.zeros(emit.shape)
    for _, steps, (h_a, h_t, emit_t, trans, table) in l.walk(
            h, h.T, emit.T, *_plane_tables(l, l.trans.T), backward=True):
        for t in steps:
            np.add(trans, emit_t[..., t + 1, None] + h_t[..., t + 1, None], out=table)
            np.maximum.reduce(table, 0, out=h_a[t])
    return h.transpose(1, 0, 2).reshape(l.emit.shape)


def _plane_tables(l: Lattice, trans):
    """``trans`` (j, k) tiled to (j, b, k) for each lattice b of ``l``, and a step table."""
    tiled = np.empty((l.K, len(l.lengths), l.K))
    tiled[...] = trans[:, None]
    return tiled, np.empty_like(tiled)


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
    Step t runs only the lattices still active, the stack's first ones; a
    lattice is finished at its own last step, by the final top-n rule over its
    own survivors, and its paths are walked back from there.
    Returns (paths, scores, sizes): the lattices' top-n lists one after
    another, and each list's length.
    """
    T, K, trans, B = l.T, l.K, l.trans, len(l.lengths)
    cut = width is None and n > 1 and n * K * K > _DENSE_CELLS  # the g + h cut
    if l.emit.ndim == 3 and width is not None:
        raise ValueError("beam search takes one lattice, not a stack")
    if n < 1:
        raise ValueError("n must be >= 1")
    emit = l.emit.reshape(B, T, K).transpose(1, 0, 2).reshape(T, B * K)
    ends = dict(zip(l.lengths[::-1], range(B - 1, -1, -1)))  # end step: how many are longer
    offset = np.arange(K)  # key of (row 0, tag); at n = 1, plus each lattice's first key
    if B > 1 and n == 1:
        start = np.repeat(np.arange(0, B * K, K), K)  # first column of a survivor's lattice
        offset = offset + start[::K, None] * K
    if cut:
        eh = backward_viterbi(l).reshape(B, T, 1, K).transpose(1, 0, 2, 3)  # (T, B, 1, K)
        eh[1:] += emit[1:].reshape(T - 1, B, 1, K)  # from step 1 on, cand lacks the emission
        # g + h and the float score of the completion it bounds each lie within
        # T*eps*span of the exact sum, span a lattice's largest |emission| summed over
        # its own steps (zeros after its end would change the pairwise sum) plus T - 1
        # times the largest |transition|; the cut needs 4*T*eps*span, taken 4x over.
        peak, eps = np.abs(trans).max(), np.finfo(float).eps
        tops = np.abs(l.emit.reshape(B, T, K)).max(axis=2)
        margin = np.array([[16 * (L + 1) * eps * (row[:L].sum() + (L - 1) * peak)]
                           for row, L in zip(tops, l.lengths)])
        real = None  # each lattice's survivor count, while the counts differ
    cand = emit[:1]
    history, ended = [], []
    for t in range(T + 1):
        if t in ends:  # lattices a .. B-1 end here: keep their top n
            a, R = ends[t], g.size // B
            rest = g[a * R :] if a else g
            if n == 1:  # argmax per lattice
                top = rest.reshape(B - a, R).argmax(1) + np.arange(B - a) * R
                sizes = [1] * (B - a)
            elif cut and real is not None:  # each lattice's n best among its real survivors
                top = [(-rest[b * R : b * R + r]).argsort(kind="stable")[:n] + b * R
                       for b, r in enumerate(real.tolist()[a:])]
                sizes = [len(own) for own in top]
                top = np.concatenate(top)
            elif B - a == 1:  # as below, without its overhead
                top = (-rest).argsort(kind="stable")[:n]
                sizes = [len(top)]
            else:  # each lattice's n best; R is 0 when NaN bounds kept no survivor
                top = (-rest.reshape(B - a, R)).argsort(1, kind="stable")[:, :n]
                sizes = [top.shape[1]] * (B - a)
                top = (top + np.arange(B - a)[:, None] * R).ravel()
            if a:
                top += a * R
            ended.append((t, top.tolist(), g.take(top).tolist(), sizes))
            if not a:
                break
            B, g, tags = a, g[: a * R], tags[: a * R]
            if offset.ndim == 2:
                offset, start = offset[:a], start[: a * K]
            if cut:
                eh, margin = eh[:, :a], margin[:a]
            if cut and real is not None:
                if a == 1:  # alone, lattice 0 keeps its real survivors, which lead its rows
                    g, tags = g[: real[0]], tags[: real[0]]
                real = real[:a] if a > 1 else None
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
    history = [keys.tolist() for keys in history]
    paths, scores, sizes = [], [], []
    for end, top, own_scores, own_sizes in reversed(ended):  # the first lattices end last
        for i in top:
            path = [0] * end
            for t in range(end - 1, -1, -1):
                i, path[t] = divmod(history[t][i], K)
            paths.append(tuple(path))
        scores += own_scores
        sizes += own_sizes
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
    return [[tags[t] for t in path] for path, _ in found]


def searched(compiled, views, search, n=1):
    """The search result of each compiled sequence, in order: its entry in
    ``search(stack, n)`` over its stack of :func:`length_buckets`, an NBestList or a
    :func:`viterbi` (path, score) pair.  A sequence fails when its emission rows or
    its searched scores are not all finite, or when NaN bounds cut its list below
    min(n, K^T) scores.  Every stack is checked before NonFiniteError is raised,
    naming the lowest-numbered failing sequence."""
    found, failed = [None] * len(compiled), []
    for idx, lat in length_buckets(compiled, views, n):
        rows_ok = np.isfinite(lat.emit.reshape(len(idx), -1)).all(axis=1).tolist()
        for i, r, ok, T in zip(idx, search(lat, n), rows_ok, lat.lengths):
            scores = r.scores if isinstance(r, NBestList) else r[1:]
            m = _count_at_most(lat.K, T, n - 1)  # min(n, K^T)
            if ok and len(scores) == m and all(map(math.isfinite, scores)):
                found[i] = r
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
    for m, T in zip(sizes, l.lengths):
        exhausted = _count_at_most(l.K, T, m) == m
        lists.append(NBestList(paths[lo : lo + m], scores[lo : lo + m], None, n, exhausted))
        lo += m
    return lists[0] if l.emit.ndim == 2 else lists


def astar_nbest(l: Lattice, n: int) -> NBestList:
    """Exact top-n taggings (the ``--search astar`` mode), probabilities left
    unfilled.  Scores equal :func:`enumerate_all`'s first n; at n >= K^T so
    do the paths.  For a stack of lattices, the list of their NBestLists from
    one search of the whole stack, with or without the ``g + h`` cut."""
    return _nbest_lists(l, n, *_search(l, n))


def beam_nbest(l: Lattice, n: int, beam: int) -> NBestList:
    """Approximate top-n: the search keeping the ``beam`` best prefixes per
    step.  With ``beam`` >= K^T it prunes nothing and its list equals the
    first n of :func:`enumerate_all`, paths and scores."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    return _nbest_lists(l, n, *_search(l, n, beam))


def enumerate_all(l: Lattice) -> NBestList:
    """All K^T taggings with exact scores, in the global tie-break order.

    Test oracle for the search routines; guarded against large instances.
    """
    if l.emit.ndim == 3:
        raise ValueError("enumeration takes one lattice, not a stack")
    T, K = l.T, l.K
    total = _count_at_most(K, T, ENUMERATION_LIMIT)
    if total > ENUMERATION_LIMIT:
        raise ValueError("K^T exceeds the enumeration guard of %d paths" % ENUMERATION_LIMIT)
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // K ** (T - 1 - t)) % K for t in range(T)]
    scores = l.emit[0][cols[0]].astype(np.float64)
    for t in range(1, T):
        scores = scores + l.trans[cols[t - 1], cols[t]]
        scores = scores + l.emit[t][cols[t]]
    # cols enumerate paths in lexicographic order, so a stable sort on
    # descending score realizes the global tie-break.
    order = np.argsort(-scores, kind="stable")
    paths = [tuple(row) for row in np.stack(cols, axis=1)[order].tolist()]
    return NBestList(paths, scores[order].tolist(), None, total, True)

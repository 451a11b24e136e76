"""Probabilistic inference and update-term assembly for linear chains.

Covers exact log-space forward-backward (partition function and node/edge
marginals), the log-linear distribution over an n-best candidate set, the
two feature mixtures that the per-sample update terms are built from
(probability-weighted top-n candidates, and exact expected counts), the
training objective, and the deviation diagnostic between the exact
gradient and its top-n approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import Model, Sequence, compile_sequence, path_items, weight_views
from .lattice import (
    Lattice,
    NBestList,
    astar_nbest,
    build_lattice,
    compiled_lattice,
    path_score,
)


@dataclass
class Marginals:
    """Log-partition plus node and edge posterior marginals."""

    logZ: float
    node: np.ndarray  # (T, K), P(y_t = k | x, w)
    edge: np.ndarray  # (T-1, K, K), P(y_{t-1} = a, y_t = b | x, w)


@dataclass
class DeltaReport:
    """Deviation of the top-n update term from the exact gradient."""

    n: int
    l2_delta: float
    linf_delta: float
    tail_mass: float


def logsumexp(a, axis=None):
    """Max-shifted log-sum-exp; no intermediate overflow for finite scores."""
    a = np.asarray(a)
    if axis is None:
        m = float(a.max())
        return m + math.log(float(np.exp(a - m).sum()))
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m, axis=axis)


def forward_logz(l: Lattice) -> float:
    """Log of the sum of exponentiated path scores over all taggings."""
    alpha = l.emit[0]
    for t in range(1, l.T):
        alpha = l.emit[t] + logsumexp(alpha[:, None] + l.trans, axis=0)
    return float(logsumexp(alpha))


def forward_backward(l: Lattice) -> Marginals:
    T, K = l.T, l.K
    alpha = np.empty((T, K))
    alpha[0] = l.emit[0]
    for t in range(1, T):
        alpha[t] = l.emit[t] + logsumexp(alpha[t - 1][:, None] + l.trans, axis=0)
    beta = np.zeros((T, K))
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(l.trans + (l.emit[t + 1] + beta[t + 1])[None, :], axis=1)
    logZ = float(logsumexp(alpha[T - 1]))
    node = np.exp(alpha + beta - logZ)
    edge = np.empty((max(T - 1, 0), K, K))
    for t in range(T - 1):
        edge[t] = np.exp(
            alpha[t][:, None] + l.trans + (l.emit[t + 1] + beta[t + 1])[None, :] - logZ
        )
    return Marginals(logZ=logZ, node=node, edge=edge)


def sequence_log_prob(m: Model, x: Sequence, y) -> float:
    """log P(y | x, w) under the exact chain distribution."""
    l = build_lattice(m, x)
    return path_score(l, y) - forward_logz(l)


def topn_distribution(nb: NBestList) -> NBestList:
    """Fill normalized log-linear probabilities over the candidate set."""
    if len(nb) == 0:
        raise ValueError("cannot normalize an empty candidate list")
    top = max(nb.scores)
    raw = [math.exp(s - top) for s in nb.scores]
    z = math.fsum(raw)
    return NBestList(
        paths=nb.paths,
        scores=nb.scores,
        probs=[p / z for p in raw],
        n_requested=nb.n_requested,
        exhausted=nb.exhausted,
    )


# ---------------------------------------------------------------------------
# Sparse update-term assembly over indexed position features.  These helpers
# are shared with the trainers so that equivalence relations between
# algorithms hold at float precision.


def candidate_mixture(pos_feats, paths, probs, K, trans_base):
    """Probability-weighted feature mixture sum_k P_k F(x, y_k).

    Candidates mostly agree position-by-position, so the per-position tag
    probabilities are tallied first and each fired feature is visited once
    per distinct tag rather than once per candidate.
    """
    T = len(pos_feats)
    tag_mass = [dict() for _ in range(T)]
    for path, p in zip(paths, probs):
        for t in range(T):
            yt = path[t]
            d = tag_mass[t]
            d[yt] = d.get(yt, 0.0) + p
    acc: dict[int, float] = {}
    for t, feats in enumerate(pos_feats):
        for yt, mass in tag_mass[t].items():
            for rid, value in feats:
                fid = rid * K + yt
                acc[fid] = acc.get(fid, 0.0) + mass * value
    if trans_base is not None:
        pair_mass: dict[int, float] = {}
        for path, p in zip(paths, probs):
            for t in range(1, T):
                fid = trans_base + path[t - 1] * K + path[t]
                pair_mass[fid] = pair_mass.get(fid, 0.0) + p
        for fid, mass in pair_mass.items():
            acc[fid] = acc.get(fid, 0.0) + mass
    return acc


def expected_items(pos_feats, marg: Marginals, K, trans_base):
    """Expected feature counts under the exact distribution, from marginals."""
    by_raw: dict[int, np.ndarray] = {}
    for t, feats in enumerate(pos_feats):
        row = marg.node[t]
        for rid, value in feats:
            vec = by_raw.get(rid)
            if vec is None:
                by_raw[rid] = value * row if value != 1.0 else row.copy()
            else:
                vec += value * row if value != 1.0 else row
    acc: dict[int, float] = {}
    for rid, vec in by_raw.items():
        base = rid * K
        for k in range(K):
            v = float(vec[k])
            if v != 0.0:
                acc[base + k] = v
    if trans_base is not None and len(pos_feats) > 1:
        etot = marg.edge.sum(axis=0)
        for a in range(K):
            for b in range(K):
                v = float(etot[a, b])
                if v != 0.0:
                    acc[trans_base + a * K + b] = v
    return acc


def subtract_oracle(mixture: dict, oracle: dict):
    """Sorted sparse items of (mixture - oracle), exact zeros dropped."""
    d = dict(mixture)
    for fid, value in oracle.items():
        d[fid] = d.get(fid, 0.0) - value
    return sorted((fid, v) for fid, v in d.items() if v != 0.0)


def labeled_sample(m: Model, z: Sequence):
    """(lattice, compiled sequence, oracle features F(x, y*)) of a labeled sample."""
    cs = compile_sequence(m, z, labeled=True)
    lat = compiled_lattice(cs.pos_feats, weight_views(m.weights, m.index))
    return lat, cs, path_items(cs.pos_feats, cs.gold, m.num_tags, cs.trans_base)


def regularizer_value(weights: np.ndarray) -> float:
    """R(w) = 0.5 ||w||^2, so that its gradient is w."""
    return 0.5 * float(np.dot(weights, weights))


def objective_value(m: Model, data, l2: float) -> float:
    """Negative regularized log-likelihood over a labeled dataset."""
    compiled = [compile_sequence(m, z, labeled=True) for z in data]
    return compiled_objective(compiled, m.weights, m.index, l2)


def compiled_objective(compiled, weights, index, l2: float) -> float:
    """:func:`objective_value` over compiled labeled sequences under ``weights``."""
    views = weight_views(weights, index)
    total = l2 * regularizer_value(weights)
    for cs in compiled:
        l = compiled_lattice(cs.pos_feats, views)
        total += forward_logz(l) - path_score(l, cs.gold)
    return total


def delta_diagnostic(m: Model, z: Sequence, n_list, l2: float, dataset_size: int):
    """Deviation between the exact gradient and its top-n approximations.

    For each requested n, reports the norms of the sparse-coordinate
    difference (the dense decay contributions cancel exactly) and the
    probability mass outside the candidate set.  The candidate sets are
    nested prefixes of one n-best search, and the tail mass is accumulated
    with sequential log-add so it is non-increasing in n by construction.
    """
    l, (pos_feats, _, trans_base), oracle = labeled_sample(m, z)
    K = m.num_tags
    marg = forward_backward(l)
    exact = subtract_oracle(expected_items(pos_feats, marg, K, trans_base), oracle)
    exact_d = dict(exact)

    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n values must be >= 1")
    nb = astar_nbest(l, n_list[-1])

    # Running log of Z_n over the ranked prefix; logaddexp never decreases.
    prefix_logz = np.full(len(nb.scores), -np.inf)
    running = -np.inf
    for i, s in enumerate(nb.scores):
        running = np.logaddexp(running, s)
        prefix_logz[i] = running

    reports = []
    for n in n_list:
        k = min(n, len(nb.paths))
        sub = NBestList(
            paths=nb.paths[:k],
            scores=nb.scores[:k],
            probs=None,
            n_requested=n,
            exhausted=nb.exhausted or k < n,
        )
        sub = topn_distribution(sub)
        approx = subtract_oracle(
            candidate_mixture(pos_feats, sub.paths, sub.probs, K, trans_base), oracle
        )
        approx_d = dict(approx)
        coords = set(exact_d) | set(approx_d)
        diffs = [exact_d.get(fid, 0.0) - approx_d.get(fid, 0.0) for fid in coords]
        l2_delta = math.sqrt(math.fsum(d * d for d in diffs))
        linf_delta = max((abs(d) for d in diffs), default=0.0)
        tail = 1.0 - math.exp(float(prefix_logz[k - 1]) - marg.logZ)
        reports.append(
            DeltaReport(n=n, l2_delta=l2_delta, linf_delta=linf_delta, tail_mass=max(tail, 0.0))
        )
    return reports


def delta_csv_lines(reports) -> list[str]:
    """CSV serialization: header plus one row per probed n."""
    lines = ["n,l2_delta,linf_delta,tail_mass"]
    for r in reports:
        lines.append("%d,%r,%r,%r" % (r.n, r.l2_delta, r.linf_delta, r.tail_mass))
    return lines

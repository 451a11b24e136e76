"""Probabilistic inference and update-term assembly for linear chains.

Covers exact log-space forward-backward (partition function and node/edge
marginals), the log-linear distribution over an n-best candidate set, the
training objective, and the deviation diagnostic between the exact
gradient and its top-n approximation.

Every learner's update term is an expected feature vector E[F] under a
distribution over taggings, minus the oracle features F(x, y*).  One kernel,
``features.expected_features``, computes it from a tag mass per position and a
tag-pair mass and the gold tagging y* as ``minus``; ``path_items`` fills the
masses with a point mass (perceptron), ``candidate_mixture`` with the
top-n distribution (SAPO) and ``expected_items`` with the exact chain marginals
(CRF); MIRA stacks its candidates' point masses with ``features.path_matrix``.
``subtract_oracle`` is the diagnostic's difference of two sparse vectors
(``features.SPARSE``).

The forward recursion and :func:`forward_logz` also take a stack of lattices
(``emit`` (B, T, K)): the objective pass runs one forward per length bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# path_items is unused here: bench/layertrace.py looks it up in this module.
from .features import (Model, Sequence, compile_corpus, compile_sequence, expected_features,
                       path_items, sparse_sum, weight_views)
from .lattice import (
    Lattice,
    NBestList,
    astar_nbest,
    build_lattice,
    check_finite,
    compiled_lattice,
    length_buckets,
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


def logsumexp(a, axis):
    """Max-shifted log-sum-exp; no intermediate overflow for finite scores."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m, axis=axis)


def _forward(l: Lattice):
    """Log-space forward scores alpha[..., t, k] (the prefixes ending in tag k)
    of a lattice or a stack, and each lattice's log Z, finished as m + log(s)."""
    alpha = np.empty(l.emit.shape)
    alpha[..., 0, :] = l.emit[..., 0, :]
    for t in range(1, l.T):
        alpha[..., t, :] = l.emit[..., t, :] + logsumexp(alpha[..., t - 1, :, None] + l.trans, -2)
    last = alpha[..., -1, :].reshape(-1, l.K)
    m = last.max(axis=1)
    s = np.exp(last - m[:, None]).sum(axis=1)
    return alpha, [mi + math.log(si) for mi, si in zip(m.tolist(), s.tolist())]


def forward_logz(l: Lattice):
    """Log of the sum of exponentiated path scores over all taggings; for a
    stack of lattices, the list of their values."""
    logz = _forward(l)[1]
    return logz[0] if l.emit.ndim == 2 else logz


def forward_backward(l: Lattice) -> Marginals:
    T, K = l.T, l.K
    alpha, (logZ,) = _forward(l)
    beta = np.zeros((T, K))
    for t in range(T - 2, -1, -1):
        beta[t] = logsumexp(l.trans + (l.emit[t + 1] + beta[t + 1])[None, :], axis=1)
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
# The tag masses of the update terms.  All of them go through the one kernel
# ``expected_features``, so that equivalences between algorithms hold at float
# precision.


def candidate_mixture(cs, paths, probs, K, minus=None):
    """E[F] under the top-n distribution: sum_k P_k F(x, y_k).

    The tag mass tallies the candidates' probabilities per position and tag in
    candidate order, so each feature is visited once per tag; the pair terms are
    each candidate's P_k at each of its tag pairs.
    """
    T, p = len(cs.counts), np.array(probs)
    y = np.array(paths, dtype=np.intp).reshape(-1, T)
    tally = np.bincount((y + np.arange(0, T * K, K)).ravel(), p.repeat(T), T * K).reshape(T, K)
    return expected_features(cs, tally, (y[:, :-1] * K + y[:, 1:]).ravel(), p.repeat(T - 1), K,
                             minus)


def expected_items(cs, marg: Marginals, K, minus=None):
    """E[F] under the exact chain: the tag mass is the node marginals, the pair
    mass the edge marginals summed over positions."""
    return expected_features(cs, marg.node, np.arange(K * K), marg.edge.sum(0).ravel(), K, minus)


def subtract_oracle(mixture, oracle):
    """The sparse vector mixture - oracle, exact zeros dropped."""
    diff = sparse_sum(((1.0, mixture), (-1.0, oracle)))
    return diff.compress(diff["value"] != 0.0)


def labeled_sample(m: Model, z: Sequence):
    """(lattice, compiled sequence) of a labeled sample."""
    cs = compile_sequence(m, z, labeled=True)
    return compiled_lattice(cs, weight_views(m.weights, m.index)), cs


def regularizer_value(weights: np.ndarray) -> float:
    """R(w) = 0.5 ||w||^2, so that its gradient is w."""
    return 0.5 * float(np.dot(weights, weights))


def objective_value(m: Model, data, l2: float) -> float:
    """Negative regularized log-likelihood over a labeled dataset."""
    compiled = compile_corpus(m, list(data), labeled=True)
    return compiled_objective(compiled, m.weights, m.index, l2)


def objective_terms(compiled, weights, index) -> list[float]:
    """Each compiled labeled sequence's log Z - score of its gold tagging under
    ``weights``, one forward per length bucket."""
    terms = [0.0] * len(compiled)
    for idx, l in length_buckets(compiled, weight_views(weights, index)):
        gold = path_score(l, [compiled[i].gold for i in idx])
        for i, logz, score in zip(idx, forward_logz(l), gold):
            terms[i] = logz - score
    return terms


def compiled_objective(compiled, weights, index, l2: float) -> float:
    """:func:`objective_value` over compiled labeled sequences under ``weights``:
    the regularizer, then the :func:`objective_terms` added in corpus order."""
    total = l2 * regularizer_value(weights)
    for term in objective_terms(compiled, weights, index):
        total += term
    return total


def delta_diagnostic(m: Model, z: Sequence, n_list, l2=None, dataset_size=None):
    """Deviation between the exact gradient and its top-n approximations.

    For each requested n, reports the norms of the sparse-coordinate
    difference (the dense decay contributions cancel exactly) and the
    probability mass outside the candidate set.  The candidate sets are
    nested prefixes of one n-best search, and the tail mass is accumulated
    with sequential log-add so it is non-increasing in n by construction.
    ``l2`` and ``dataset_size`` are unused: the decay terms they set cancel.
    Non-finite emission or searched scores raise NonFiniteError.
    """
    l, cs = labeled_sample(m, z)
    check_finite(l)
    K = m.num_tags
    marg = forward_backward(l)
    exact = expected_items(cs, marg, K, cs.gold)

    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n values must be >= 1")
    nb = astar_nbest(l, n_list[-1])
    check_finite(l, [nb.scores], n_list[-1])

    # Running log of Z_n over the ranked prefix; logaddexp never decreases.
    prefix_logz = np.logaddexp.accumulate(nb.scores)

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
        approx = candidate_mixture(cs, sub.paths, sub.probs, K, cs.gold)
        diffs = subtract_oracle(exact, approx)["value"]
        l2_delta = math.sqrt(math.fsum((diffs * diffs).tolist()))
        linf_delta = float(np.abs(diffs).max(initial=0.0))
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

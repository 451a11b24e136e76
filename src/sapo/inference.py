"""Probabilistic inference and update-term assembly for linear chains.

Covers exact log-space forward-backward (partition function and node/edge
marginals), a tagging's score w·F(x, y) and log probability (``score_sequence`` is
``lattice.path_score``, the searches' own sum, bit for bit), the log-linear
distribution over an n-best candidate set, the training objective, and the
deviation diagnostic between the exact gradient and its top-n approximation.

Every learner's update term is an expected feature vector E[F] under a
distribution over taggings, minus the oracle features F(x, y*).  Every such mass goes
through the one builder ``features.mass_rows``: ``path_items`` passes a point mass
(perceptron), ``candidate_mixture`` the top-n distribution (SAPO) and
``expected_items`` the exact chain marginals (CRF) to ``features.expected_features``
with y* as ``minus``; MIRA stacks its candidates with ``features.path_matrix``, and the
diagnostic takes the chain, one top-n set per n and y* from one ``mass_rows`` call.
``subtract_oracle``, the difference of two sparse vectors, is kept as a reference.

The forward recursion, :func:`forward_logz` and :func:`forward_backward` take a
lattice as a stack of one, or a stack of lattices of mixed lengths (``emit``
(B, T, K) and ``lengths``), and step through ``Lattice.walk`` over the lattices
still active: the objective pass runs one forward per stack of
``lattice.length_buckets``.  The diagnostic searches and checks its probes with
``lattice.searched``, as decoding does, and takes their marginals from one
forward-backward per part of a stack, split by the rule of ``length_buckets``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# path_items is unused here: bench/layertrace.py looks it up in this module.
from .features import (Model, Sequence, compile_corpus, compile_sequence, expected_features,
                       mass_rows, path_items, sparse_sum, weight_views)
from .lattice import (Lattice, NBestList, NonFiniteError, _stack_parts, astar_nbest,
                      build_lattice, compiled_lattice, length_buckets, path_score, searched)


@dataclass
class Marginals:
    """Log-partition plus node and edge posterior marginals."""

    logZ: float
    node: np.ndarray  # (T, K), P(y_t = k | x, w)
    edge: np.ndarray  # (T-1, K, K), P(y_{t-1} = a, y_t = b | x, w)


@dataclass
class _Probe(NBestList):
    """A diagnostic probe's n-best list, with its chain marginals."""

    marg: Marginals | None = None


@dataclass
class DeltaReport:
    """Deviation of the top-n update term from the exact gradient."""

    n: int
    l2_delta: float
    linf_delta: float
    tail_mass: float


def logsumexp(a, axis):
    """Max-shifted log-sum-exp, in place in the scratch table ``a``; no overflow if finite."""
    m = a.max(axis=axis, keepdims=True)
    a -= m
    return np.log(np.exp(a, out=a).sum(axis=axis)) + m.squeeze(axis)


def _forward(l: Lattice):
    """Log-space forward scores alpha[t, b, k] (the prefixes of lattice b ending in
    tag k) of a stack, a lattice being a stack of one, and each lattice's log Z,
    finished from its row at its own last step as m + log(s)."""
    emit = l.emit.reshape(-1, l.T, l.K).transpose(1, 0, 2)  # (T, B, K)
    alpha = np.empty(emit.shape)
    alpha[0] = emit[0]
    for _, steps, (alpha_a, emit_a) in l.walk(alpha, emit):
        for t in steps:
            np.add(emit_a[t], logsumexp(alpha_a[t - 1, ..., None] + l.trans, -2), out=alpha_a[t])
    B = len(l.lengths)  # each lattice's row at its own last step:
    last = alpha.reshape(-1, l.K).take([(L - 1) * B + b for b, L in enumerate(l.lengths)], 0)
    m = last.max(axis=1)
    s = np.exp(last - m[:, None]).sum(axis=1)
    return alpha, [mi + math.log(si) for mi, si in zip(m.tolist(), s.tolist())]


def forward_logz(l: Lattice):
    """Log of the sum of exponentiated path scores over all taggings; for a
    stack of lattices, the list of their values."""
    logz = _forward(l)[1]
    return logz[0] if l.emit.ndim == 2 else logz


def forward_backward(l: Lattice) -> Marginals:
    """Log Z and the node and edge marginals of a lattice; for a stack, the list
    of each lattice's, from one pass over the stack.  Each step runs only the
    lattices still active."""
    emit = l.emit.reshape(-1, l.T, l.K).transpose(1, 0, 2)  # (T, B, K)
    T, B, K = emit.shape
    alpha, logz = _forward(l)
    z = np.array(logz)[None, :, None]  # (1, B, 1)
    beta = np.zeros(emit.shape)
    node = np.empty(emit.shape)
    edge = np.empty((max(T - 1, 0), B, K, K))
    for rows, steps, (alpha_a, beta_a, emit_a, edge_a, node_a, z_a) in l.walk(
            alpha, beta, emit, edge, node, z, backward=True):
        for t in steps:  # beta[t] and edge[t] take the lattices active at t + 1
            ahead = (emit_a[t + 1] + beta_a[t + 1])[..., None, :]
            beta_a[t] = logsumexp(l.trans + ahead, axis=-1)
            edge_a[t] = np.exp(alpha_a[t, ..., None] + l.trans + ahead - z_a[0, ..., None])
        node_a[rows] = np.exp(alpha_a[rows] + beta_a[rows] - z_a)
    own = np.ascontiguousarray
    margs = [Marginals(logZ, own(node[:T, b]), own(edge[: T - 1, b]))
             for b, (logZ, T) in enumerate(zip(logz, l.lengths))]
    return margs[0] if l.emit.ndim == 2 else margs


def score_sequence(m: Model, x: Sequence, y) -> float:
    """Linear score w·F(x, y) of a tagging under the model: its :func:`path_score`,
    so bit for bit the score that a search or ``enumerate_all`` gives it."""
    return path_score(build_lattice(m, x), y)


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
    return NBestList(nb.paths, nb.scores, [p / z for p in raw], nb.n_requested, nb.exhausted)


# ---------------------------------------------------------------------------
# The masses of the update terms, as entries of ``features.mass_rows``.  All of them
# go through that one builder, so that equivalences between algorithms hold at float
# precision.


def candidate_mixture(cs, paths, probs, K, minus=None):
    """E[F] under the top-n distribution: sum_k P_k F(x, y_k), from :func:`_tallies`."""
    y = np.array(paths, dtype=np.intp).reshape(-1, len(cs.counts))
    return expected_features(cs, _tallies(y, np.array(probs)[None], K), K, minus)


def _tallies(y, probs, K):
    """The tally entry of S candidate sets over the taggings ``y``: set s gives row r
    the probability ``probs[s, r]``, tallied per position and tag in row order by one
    ``np.bincount``.  A row at 0.0 adds exact zeros, which leave every sum as it was."""
    S, T = len(probs), y.shape[1]
    cells = y + np.arange(0, T * K, K)
    if S > 1:  # set s's cells start at s * T * K
        cells = cells + T * K * np.arange(S)[:, None, None]
    tally = np.bincount(cells.ravel(), probs.repeat(T, 1).ravel(), S * T * K)
    return tally.reshape(S, T, K), (y[:, :-1] * K + y[:, 1:]).ravel(), probs.repeat(T - 1, 1)


def _chain(marg: Marginals, K):
    """The exact chain's entry: node marginals, and edge marginals summed over positions."""
    return marg.node[None], np.arange(K * K), marg.edge.sum(0).reshape(1, K * K)


def expected_items(cs, marg: Marginals, K, minus=None):
    """E[F] under the exact chain."""
    return expected_features(cs, _chain(marg, K), K, minus)


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
    ``weights``, one forward per stack of :func:`lattice.length_buckets`."""
    terms = [0.0] * len(compiled)
    for idx, l in length_buckets(compiled, weight_views(weights, index)):
        gold = path_score(l, [compiled[i].gold for i in idx])
        for i, logz, score in zip(idx, forward_logz(l), gold):
            terms[i] = logz - score
    return terms


def compiled_objective(compiled, weights, index, l2: float) -> float:
    """:func:`objective_value` over compiled labeled sequences under ``weights``."""
    return objective_sum(objective_terms(compiled, weights, index), weights, l2)


def objective_sum(terms, weights, l2: float) -> float:
    """The regularizer, then the :func:`objective_terms` ``terms`` added in corpus order."""
    total = l2 * regularizer_value(weights)
    for term in terms:
        total += term
    return total


def delta_diagnostic(m: Model, z: Sequence, n_list, l2=None, dataset_size=None):
    """:func:`delta_diagnostics` of one probe.  ``l2`` and ``dataset_size`` are
    unused: the decay terms they set cancel."""
    return delta_diagnostics(m, [z], n_list)[0]


def delta_diagnostics(m: Model, probes, n_list):
    """Deviation between the exact gradient and its top-n approximations: per probe,
    one DeltaReport per n of ``n_list`` (sorted, duplicates dropped).

    A report holds the norms of the sparse-coordinate difference (the dense decay
    terms cancel exactly) and the probability mass outside the candidate set.  The
    candidate sets are nested prefixes of one n-best search, and the tail mass comes
    from a sequential log-add, so it is non-increasing in n by construction.  The
    probes are compiled together, then searched by ``lattice.searched``, so a compile
    (validation) error comes before any numeric one.  A probe with non-finite scores,
    log Z, differences or norms raises NonFiniteError naming it."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n values must be >= 1")
    compiled = compile_corpus(m, list(probes), labeled=True)
    found = searched(compiled, weight_views(m.weights, m.index), _nbest_and_marginals,
                     n_list[-1])
    return [_probe_reports(i, cs, probe, probe.marg, n_list, m.num_tags)
            for i, (cs, probe) in enumerate(zip(compiled, found))]


def _nbest_and_marginals(stack: Lattice, n):
    """Each lattice's n-best list with its Marginals: one search of the stack, and
    one forward-backward per part of it, split by ``lattice._stack_parts`` by its
    edge cells (T*K^2 a lattice)."""
    margs = []
    for part in _stack_parts(stack.lengths, lambda T: T * stack.K**2):
        lengths = stack.lengths[part]
        margs += forward_backward(Lattice(stack.emit[part, : lengths[0]], stack.trans, lengths))
    return [_Probe(nb.paths, nb.scores, nb.probs, nb.n_requested, nb.exhausted, marg)
            for nb, marg in zip(astar_nbest(stack, n), margs)]


def _probe_reports(i, cs, nb: NBestList, marg: Marginals, n_list, K):
    """Probe i's reports from the rows of one ``mass_rows`` call: E[F] under the
    chain, under each n's top-n distribution (one :func:`_tallies` set each) and under
    the gold tagging."""
    sizes = [min(n, len(nb)) for n in n_list]
    p = np.zeros((len(sizes), len(nb)))  # set s: the top sizes[s] paths, the rest at 0.0
    for s, k in enumerate(sizes):
        p[s, :k] = topn_distribution(NBestList(nb.paths[:k], nb.scores[:k], None, k, False)).probs
    rows = mass_rows(cs, [_chain(marg, K), _tallies(np.array(nb.paths, np.intp), p, K),
                          np.array(cs.gold, np.intp)[None]], K)
    terms = rows[:-1] - rows[-1]  # E[F] - F(x, y*): the exact one, then each n's
    # Cell for cell each n's subtract_oracle; zero cells add nothing to either norm.
    diffs = terms[0] - terms[1:]
    linf = np.abs(diffs).max(axis=1, initial=0.0).astype(float).tolist()
    l2 = [_l2_norm(d, sq) for d, sq in zip(diffs, (diffs * diffs).tolist())]
    if not all(map(math.isfinite, [marg.logZ, *linf, *l2])):
        raise NonFiniteError(i, None, what="gradient deviation of sequence %d" % i)
    prefix_logz = np.logaddexp.accumulate(nb.scores)  # running log Z_n, never decreasing
    return [DeltaReport(n=n, l2_delta=norm, linf_delta=top,
                        tail_mass=max(1.0 - math.exp(float(prefix_logz[k - 1]) - marg.logZ), 0.0))
            for n, k, norm, top in zip(n_list, sizes, l2, linf)]


def _l2_norm(d, sq):
    """sqrt(fsum(sq)), the L2 norm of ``d`` from its squares, or where that overflows,
    ``math.hypot``'s, which scales by the largest magnitude first."""
    try:
        norm = math.sqrt(math.fsum(sq))
    except OverflowError:  # fsum's partial sums overflowed
        norm = math.inf
    return math.hypot(*d.tolist()) if norm == math.inf else norm


def delta_csv_lines(reports) -> list[str]:
    """CSV serialization: header plus one row per probed n."""
    lines = ["n,l2_delta,linf_delta,tail_mass"]
    for r in reports:
        lines.append("%d,%r,%r,%r" % (r.n, r.l2_delta, r.linf_delta, r.tail_mass))
    return lines

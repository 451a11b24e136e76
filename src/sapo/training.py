"""Online trainers for linear-chain models.

Implements the search-based probabilistic online learner (SAPO): per
sample, search the top-n taggings, weight each candidate by its
normalized log-linear probability, downdate by the probability-weighted
candidate features, update by the oracle features, then shrink all
weights by (1 - lr * l2 / |S|).  Exact-inference SGD on the regularized
likelihood, the structured perceptron, and 1-best/n-best MIRA (naive and
averaged) share the same epoch orchestration; 1-best MIRA is n-best MIRA
with the Viterbi path as its only candidate.

The update E[F] - F(x, y*), one sparse vector (``features.SPARSE``) from
``features.expected_features``, is applied by fancy indexing, and the per-sample
decay is a deferred global scale factor, so a full pass costs O(touched
features) per sample.  MIRA stacks its candidates' F(x, y_k) - F(x, y*) as the
rows of one dense matrix D (``features.path_matrix``, one ``mass_rows`` stack),
solves the dual of its margin constraints, a box-constrained QP over at most n
variables, exactly by an active set (``_box_dual``), and applies -D^T alpha as one
sparse vector.  All trainers are deterministic given (data, config, seed).
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass, field
from operator import add, mul, sub

import numpy as np

from .dataio import write_text
from .evaluation import SCORERS, ChunkTagError, sequence_chunks, token_accuracy, w_complexity
from .features import (
    SPARSE,
    Model,
    Sequence,
    build_model,
    compile_corpus,
    path_items,
    path_matrix,
    sequences_of,
    sparse_vector,
    weight_views,
)
from .inference import (
    candidate_mixture,
    expected_items,
    forward_backward,
    labeled_sample,
    objective_sum,
    objective_terms,
    topn_distribution,
)
from .lattice import (
    NonFiniteError,
    astar_nbest,
    beam_nbest,
    compiled_lattice,
    viterbi,
    viterbi_tags,
)

# Top-n searches by ``--search`` name, each looked up when called, as in ``SCORERS``.
_SEARCHES = {"astar": lambda lat, n, beam: astar_nbest(lat, n),
             "beam": lambda lat, n, beam: beam_nbest(lat, n, beam)}
SEARCH_MODES = tuple(_SEARCHES)
METRICS = tuple(SCORERS)
# A positive weight scale below this is folded into the weights (see
# WeightState.decay), long before it could underflow to 0.
SCALE_FLOOR = 1e-100


class ConfigError(ValueError):
    """Invalid training configuration or training inputs."""


@dataclass
class TrainConfig:
    algorithm: str
    n: int = 5
    learning_rate: float = 0.05
    l2: float = 1.0
    epochs: int = 20
    seed: int = 1
    search: str = "astar"
    beam_width: int = 50
    lr_decay: float = 1.0  # per-epoch learning-rate multiplier; 1.0 is a fixed rate
    mira_clip: float = math.inf
    eval_every: int = 1
    metric: str = "accuracy"

    def validate(self):
        """Check every field, raising ConfigError; integer fields are stored as int, and a
        float field that is neither an int nor a float (say, a NumPy scalar or a Fraction)
        as float, so that a saved model's config JSON can hold it."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("unknown algorithm %r" % self.algorithm)
        for name in ("n", "epochs", "seed", "beam_width", "eval_every"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ConfigError("%s must be an integer, got %r" % (name, value)) from None
        for name in ("learning_rate", "l2", "lr_decay", "mira_clip"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError("%s must be a real number, got %r" % (name, value))
            try:
                as_float = float(value)  # an int or Fraction past the float range overflows
            except OverflowError:
                raise ConfigError("%s must be within float range, got %r" % (name, value)) from None
            if not isinstance(value, (int, float)):
                setattr(self, name, as_float)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning rate must be finite and > 0, got %r" % self.learning_rate)
        if not 0 <= self.l2 < math.inf:
            raise ConfigError("l2 strength must be finite and >= 0, got %r" % self.l2)
        if self.beam_width < 1:
            raise ConfigError("beam width must be >= 1")
        if self.search not in SEARCH_MODES:
            raise ConfigError("search must be one of %s" % (SEARCH_MODES,))
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr decay rate must be in (0, 1]")
        if not self.mira_clip > 0:
            raise ConfigError("MIRA clip must be > 0 (may be inf)")
        if self.eval_every < 1:
            raise ConfigError("eval-every must be >= 1")
        if self.metric not in METRICS:
            raise ConfigError("metric must be one of %s" % (METRICS,))
        return self

    def snapshot(self) -> dict:
        return asdict(self)


@dataclass
class CurvePoint:
    epoch: int  # 1-based
    objective: float
    heldout_metric: float | None
    w_complexity: float
    epoch_seconds: float


@dataclass
class TrainCurve:
    points: list[CurvePoint] = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def csv_lines(self):
        lines = ["epoch,objective,heldout_metric,w_complexity,epoch_seconds"]
        for p in self.points:
            held = "" if p.heldout_metric is None else repr(p.heldout_metric)
            lines.append(
                "%d,%r,%s,%r,%r" % (p.epoch, p.objective, held, p.w_complexity, p.epoch_seconds)
            )
        return lines

    def write_csv(self, path):
        write_text(path, "\n".join(self.csv_lines()) + "\n")


class WeightState:
    """Dense weights behind a deferred global scale factor.

    True weights are ``scale * v``.  Sparse updates touch only their own
    coordinates; the per-sample L2 decay multiplies ``scale`` in O(1).
    Each sparse update checks the weights it writes, the only place one can turn
    non-finite (a fold multiplies by a scale in (0, 1)), so ``finite()`` is O(1).
    With averaging enabled, the running sum of post-update weight
    snapshots is maintained lazily per coordinate via prefix sums of the
    scale, so averaging also costs O(touched) per sample.
    """

    def __init__(self, n_features: int, averaging: bool = False):
        self.v = np.zeros(n_features)
        self.scale = 1.0
        self.written_finite = True  # every weight a sparse update wrote was finite
        self.samples = 0  # completed per-sample updates U
        self.cum_scale = 0.0  # sum of scale over completed samples
        self.averaging = averaging
        if averaging:
            self.acc = np.zeros(n_features)
            self.last_cum = np.zeros(n_features)

    def sparse_add(self, items, coeff: float):
        """w[fid] += coeff * value per item of a sparse vector or distinct-id (id, value)
        list, recording whether every weight it writes is finite."""
        items = np.asarray(items, SPARSE)
        fid = items["id"]
        if self.averaging:
            self.acc[fid] += self.v[fid] * (self.cum_scale - self.last_cum[fid])
            self.last_cum[fid] = self.cum_scale
        w = self.v[fid] + coeff * items["value"] / self.scale
        self.v[fid] = w
        self.written_finite &= bool(np.isfinite(w).all())

    def decay(self, factor: float):
        if factor != 1.0:
            self.scale *= factor
            if 0.0 < self.scale < SCALE_FLOOR:
                self._fold()

    def _fold(self):
        """Move ``scale`` into ``v`` and reset it to 1; the weights and their
        running average are unchanged."""
        if self.averaging:
            self.acc += self.v * (self.cum_scale - self.last_cum)
            self.last_cum[:] = 0.0
            self.cum_scale = 0.0
        self.v *= self.scale
        self.scale = 1.0

    def end_sample(self):
        self.samples += 1
        self.cum_scale += self.scale

    def finite(self) -> bool:
        """Whether the weights are finite: every sparse write was, and so is ``scale``."""
        return self.written_finite and math.isfinite(self.scale)

    def current_weights(self) -> np.ndarray:
        return self.v * self.scale

    def averaged_weights(self) -> np.ndarray:
        if not self.averaging:
            raise RuntimeError("averaging is not enabled")
        if self.samples == 0:
            return self.v.copy()
        pending = self.v * (self.cum_scale - self.last_cum)
        return (self.acc + pending) / self.samples


def run_epoch(step_fn, data, rng):
    """Visit every sample once in a fresh seeded permutation.

    Returns (order, wall seconds), timing the sample loop only; curve
    metrics are computed by the caller afterwards.
    """
    order = rng.permutation(len(data))
    t0 = time.perf_counter()
    for i in order:
        step_fn(int(i))
    return order, time.perf_counter() - t0


def train(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    """Train with the algorithm selected by ``cfg.algorithm``."""
    factory, averaged, _ = _TRAINERS[cfg.validate().algorithm]
    sequences = sequences_of(data)
    if not sequences:
        raise ConfigError("training set is empty")
    held_sequences = sequences_of(heldout) if heldout is not None else []
    n_columns = len(sequences[0].tokens[0])
    # The model can predict any training tag, so chunk-f1 needs BIO tags there too.
    chunks = cfg.metric == "chunk-f1" and bool(held_sequences)
    for name, seqs in (("training", sequences), ("held-out", held_sequences)):
        for i, seq in enumerate(seqs):
            if seq.gold is None:
                raise ConfigError("%s sequence %d has no gold tagging" % (name, i))
            widths = set(map(len, seq.tokens)) - {n_columns}
            if widths:
                raise ConfigError("%s sequence %d has a token of %d columns; the training "
                                  "corpus has %d" % (name, i, min(widths), n_columns))
            if chunks:
                try:
                    sequence_chunks(seq.gold, name, i)
                except ChunkTagError as e:
                    raise ConfigError(str(e)) from None
    compiled = []
    model = build_model(sequences, template_text, n_columns, compiled)
    held_compiled = compile_corpus(model, held_sequences)  # golds compare as strings

    state = WeightState(model.index.n_features, averaging=averaged)
    views = weight_views(state.v, model.index)

    def lattice_for(cs):
        return compiled_lattice(cs, views, state.scale)

    step = factory(model=model, samples=compiled, state=state, cfg=cfg, lattice_for=lattice_for)

    rng = np.random.default_rng(cfg.seed)
    curve = TrainCurve()

    def checked_step(i, epoch):
        step(i, epoch)
        state.end_sample()
        if not state.finite():
            raise NonFiniteError(i, epoch)

    for epoch in range(1, cfg.epochs + 1):
        _, seconds = run_epoch(lambda i: checked_step(i, epoch), compiled, rng)
        weights = model.weights = state.averaged_weights() if averaged else state.current_weights()
        terms = objective_terms(compiled, weights, model.index)
        objective = objective_sum(terms, weights, cfg.l2)
        if not math.isfinite(objective):  # name its first non-finite term
            i = next((i for i, term in enumerate(terms) if not math.isfinite(term)), None)
            raise NonFiniteError(i, epoch, what="objective (its L2 term)" if i is None
                                 else "objective term of sequence %d" % i)
        held_metric = None
        if held_compiled and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            try:
                preds = viterbi_tags(model, held_compiled, weights)
            except NonFiniteError as e:
                raise NonFiniteError(e.sample_index, epoch, what="held-out " + e.what) from None
            held_metric = SCORERS[cfg.metric](held_sequences, preds).value
        curve.points.append(
            CurvePoint(
                epoch=epoch,
                objective=objective,
                heldout_metric=held_metric,
                w_complexity=w_complexity(model),
                epoch_seconds=seconds,
            )
        )
        if on_epoch_end is not None:
            on_epoch_end(epoch, weights)

    train_acc = token_accuracy(sequences, viterbi_tags(model, compiled, model.weights)).value
    model.meta = {
        "config": cfg.snapshot(),
        "train_accuracy": train_acc,
        "final_heldout_metric": curve.points[-1].heldout_metric,
        "n_features": int(model.index.n_features),
    }
    return model, curve


# ---------------------------------------------------------------------------
# Per-sample update terms, shared by the trainers and the public per-sample API


@dataclass
class UpdateTerm:
    """Per-sample weight-change direction.

    ``items`` is the sparse part (expected features minus oracle features,
    as (id, value) pairs sorted by id, exact zeros dropped); ``decay`` is the L2 coefficient
    lambda/|S| whose dense contribution ``decay * w`` is applied by the
    trainer as a multiplicative shrink.
    """

    items: list[tuple[int, float]]
    decay: float


def _sapo_items(lat, cs, n, search, beam):
    """Top-n probability-weighted candidate features minus the oracle's."""
    nb = topn_distribution(_SEARCHES[search](lat, n, beam))
    return candidate_mixture(cs, nb.paths, nb.probs, lat.K, cs.gold)


def _crf_items(lat, cs):
    """Exact expected features minus the oracle's."""
    return expected_items(cs, forward_backward(lat), lat.K, cs.gold)


def _sample_decay(cfg: TrainConfig, size) -> float:
    """l2/|S| of a per-sample term, once ``cfg`` is valid and |S| an integer >= 1."""
    cfg.validate()
    if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
        raise ConfigError("dataset_size must be an integer >= 1, got %r" % (size,))
    return cfg.l2 / size


def crf_stochastic_gradient(m: Model, z: Sequence, l2: float, dataset_size: int) -> UpdateTerm:
    """Exact per-sample gradient of the regularized negative log-likelihood.

    Sparse part is E_P[F] - F(x, y*), assembled from node/edge marginals;
    the dense part is (l2 / dataset_size) * w, reported via ``decay``; ``l2`` is
    checked as the ``crf-sgd`` trainer checks it.
    """
    decay = _sample_decay(TrainConfig("crf-sgd", l2=l2), dataset_size)
    return UpdateTerm(_crf_items(*labeled_sample(m, z)).tolist(), decay)


def sapo_update_term(
    m: Model,
    z: Sequence,
    n: int,
    l2: float,
    dataset_size: int,
    search: str = "astar",
    beam: int = 50,
) -> UpdateTerm:
    """Top-n approximation of the stochastic gradient.

    The candidate set is exactly the n-best search output; the gold
    tagging is neither forced in nor excluded.  Checked as the ``sapo`` trainer is.
    """
    cfg = TrainConfig("sapo", n=n, l2=l2, search=search, beam_width=beam)
    decay = _sample_decay(cfg, dataset_size)
    items = _sapo_items(*labeled_sample(m, z), cfg.n, cfg.search, cfg.beam_width)
    return UpdateTerm(items.tolist(), decay)


# ---------------------------------------------------------------------------
# Per-algorithm sample steps


def _decay_rate(cfg, dataset_size):
    """l2/|S|, after checking that the shrink factor 1 - lr*l2/|S| is positive.

    An overflowing product is left to the non-finite check.
    """
    rate = cfg.l2 / dataset_size
    shrink = cfg.learning_rate * rate
    if math.isfinite(shrink) and shrink >= 1.0:
        raise ConfigError(
            "shrink factor 1 - lr*l2/|S| = 1 - %r*%r/%d = %r must be positive; lower lr or l2"
            % (cfg.learning_rate, cfg.l2, dataset_size, 1.0 - shrink)
        )
    return rate


def _sgd_factory(model, samples, state, cfg, lattice_for):
    """SAPO and CRF-SGD: w -= gamma * term, then w *= 1 - gamma * l2/|S|."""
    decay_l2 = _decay_rate(cfg, len(samples))
    topn = "n" in _TRAINERS[cfg.algorithm][2]

    def step(i, epoch):
        cs, gamma = samples[i], cfg.learning_rate * cfg.lr_decay ** (epoch - 1)
        if topn:
            items = _sapo_items(lattice_for(cs), cs, cfg.n, cfg.search, cfg.beam_width)
        else:
            items = _crf_items(lattice_for(cs), cs)
        state.sparse_add(items, -gamma)
        state.decay(1.0 - gamma * decay_l2)

    return step


def _perceptron_factory(model, samples, state, cfg, lattice_for):
    K = model.num_tags

    def step(i, epoch):
        cs = samples[i]
        pred, _ = viterbi(lattice_for(cs))
        if pred == cs.gold:
            return
        state.sparse_add(path_items(cs, pred, K, cs.gold), -1.0)

    return step


# A pivot or a KKT gradient within this fraction of its own scale is rounding, so zero.
_DUAL_RTOL = 1e-12


def _free_solve(G, free, r):
    """Solve G[free, free] x = r by Gaussian elimination in ``free`` order.

    Returns (x, None), or (None, d) when a pivot is within rounding of zero: G is PSD,
    so the first such pivot's leading block has a null vector d (its last entry 1),
    and d padded with zeros is a null vector of G[free, free]."""
    m = len(free)
    aug = [[G[i][j] for j in free] + [r_i] for i, r_i in zip(free, r)]
    for k, row in enumerate(aug):
        if row[k] <= _DUAL_RTOL * G[free[k]][free[k]]:
            d = [0.0] * k + [1.0]
            for p in range(k - 1, -1, -1):
                d[p] = -sum(map(mul, aug[p][p + 1:k + 1], d[p + 1:])) / aug[p][p]
            return None, d
        for below in aug[k + 1:]:
            f = below[k] / row[k]
            for j in range(k, m + 1):
                below[j] -= f * row[j]
    x = [0.0] * m
    for p in range(m - 1, -1, -1):
        x[p] = (aug[p][m] - sum(map(mul, aug[p][p + 1:m], x[p + 1:]))) / aug[p][p]
    return x, None


def _box_dual(G, b, C):
    """The maximizer of b.a - a.G.a / 2 over 0 <= a <= C, for a PSD Gram matrix G.

    A primal active set (Lawson & Hanson 1974, with an upper bound).  From a = 0, each
    round frees the bound variable that violates the KKT conditions most, then moves
    toward the optimum of the free subsystem, the bound variables fixed.  A free
    variable that meets a bound on the way stops the move there and leaves the free
    set; the round ends when the optimum lies inside the box.  If freeing makes the
    subsystem singular, a null direction d of G = D.D^T (so D^T a does not change
    along it) raises the objective linearly, and the move follows d to the first
    bound instead.  Two cases undo the round and keep the freed variable at its bound
    for the rest of the solve: no bound stops the move along d (C = inf and the
    candidates' margins cannot all hold, so the dual is unbounded), or the round ends
    without a positive gain or in the (free set, at-C set) state of an earlier round's
    end (rounding).  Neither changes D^T a.  The objective is quadratic, so a round's
    gain is exactly (g_old + g_new).(a_new - a_old) / 2, which does not round away
    beside the objective's value as a difference of two values can.  A rounded gain
    could still be positive around a cycle of states, hence the state test: there are
    finitely many states and at most nc undone rounds, so the solve ends.  One
    variable with G > 0 gives min(C, max(0, b / G)); with G = 0 (a nonzero dF whose
    squares underflow) the loop gives C if b > 0 and C is finite, else 0.
    """
    nc = len(b)
    if nc == 1 and G[0][0] > 0.0:
        return [min(C, max(0.0, b[0] / G[0][0]))]
    a, free, held = [0.0] * nc, [], set()
    g = b[:]  # b - G.a
    ends = {(frozenset(), frozenset())}  # the (free set, at-C set) states rounds ended in
    while True:
        i, viol = None, 0.0
        for k, g_k in enumerate(g):
            v = g_k if a[k] == 0.0 else -g_k
            if (v > viol and k not in free and k not in held
                    and v > _DUAL_RTOL * (abs(b[k]) + sum(map(abs, map(mul, G[k], a))))):
                i, viol = k, v
        if i is None:
            return a
        saved = a[:], free[:], g
        sign = 1.0 if a[i] == 0.0 else -1.0
        free.append(i)
        while free:
            upper = [j for j, a_j in enumerate(a) if a_j == C and j not in free]
            r = [b[k] - sum([G[k][j] for j in upper]) * C if upper else b[k] for k in free]
            z, d = _free_solve(G, free, r)
            u = [z_k - a[k] for z_k, k in zip(z, free)] if d is None else [sign * x for x in d]
            t, stop = (1.0 if d is None else math.inf), None
            for p, (k, u_k) in enumerate(zip(free, u)):
                t_k = -a[k] / u_k if u_k < 0 else (C - a[k]) / u_k if u_k > 0 else math.inf
                if t_k < t:
                    t, stop = t_k, p
            if stop is None:  # the optimum is inside the box, or d is unbounded
                if d is None:
                    for k, z_k in zip(free, z):
                        a[k] = z_k
                else:
                    a = saved[0]
                break
            for k, u_k in zip(free, u):
                a[k] += t * u_k
            a[free.pop(stop)] = 0.0 if u[stop] < 0 else C
        g = [b_k - sum(map(mul, G_k, a)) for b_k, G_k in zip(b, G)]
        gain = sum(map(mul, map(add, saved[2], g), map(sub, a, saved[0]))) / 2
        end = (frozenset(free), frozenset(k for k, a_k in enumerate(a) if a_k == C))
        if gain > 0.0 and end not in ends:
            ends.add(end)
        else:
            a, free, g = saved
            held.add(i)


def _mira_factory(model, samples, state, cfg, lattice_for):
    """1-best and n-best MIRA (McDonald, Crammer & Pereira 2005): the smallest weight
    change that lifts the gold y*'s margin over each candidate y_k to at least their
    Hamming distance, slack priced at C.  The candidates' dF_k = F(x, y_k) - F(x, y*)
    are the rows of one matrix D over the sequence's kernel cells, from one
    ``features.mass_rows`` stack of the candidates and y* (``features.path_matrix``);
    the dual max b.a - a.D.D^T.a / 2 over 0 <= a <= C, with b = loss - margin, is solved
    exactly by ``_box_dual``, and w -= D^T a is one sparse update.  Candidates with zero
    loss or dF = 0 give no constraint.  With one candidate the step is the
    passive-aggressive closed form min(C, max(0, (loss - margin) / ||dF||^2)).
    """
    K = model.num_tags
    n, search = (cfg.n, cfg.search) if "n" in _TRAINERS[cfg.algorithm][2] else (1, "astar")

    def step(i, epoch):
        cs = samples[i]
        paths = np.array(_SEARCHES[search](lattice_for(cs), n, cfg.beam_width).paths)
        loss = (paths != cs.gold).sum(axis=1)
        dF, ids = path_matrix(cs, paths, K, cs.gold)
        keep = (loss > 0) & dF.any(axis=1)
        if not keep.any():
            return
        dF = dF[keep]
        b = loss[keep] + state.scale * (dF @ state.v[ids])  # loss - margin
        G = dF @ dF.T
        if not (np.isfinite(b).all() and np.isfinite(G).all()):
            raise NonFiniteError(i, epoch, what="MIRA margins or Gram matrix at sequence %d" % i)
        alpha = _box_dual(G.tolist(), b.tolist(), cfg.mira_clip)
        update = np.array(alpha) @ dF
        nz = update.nonzero()[0]
        state.sparse_add(sparse_vector(ids[nz], update[nz]), -1.0)

    return step


# ---------------------------------------------------------------------------
# Public trainer entry points

# The one description of each algorithm: algorithm -> (step factory, averaged,
# the algorithm-specific TrainConfig fields it reads).  An algorithm that reads
# ``n`` searches the top n; the CLI rejects a flag for a field it does not read.
_TOPN_FIELDS = ("n", "search", "beam_width")
_SGD_FIELDS = ("learning_rate", "l2", "lr_decay")
_TRAINERS = {
    "sapo": (_sgd_factory, False, _TOPN_FIELDS + _SGD_FIELDS),
    "crf-sgd": (_sgd_factory, False, _SGD_FIELDS),
    "perc": (_perceptron_factory, False, ()),
    "perc-avg": (_perceptron_factory, True, ()),
    "mira": (_mira_factory, False, ("mira_clip",)),
    "mira-avg": (_mira_factory, True, ("mira_clip",)),
    "mira-nbest": (_mira_factory, False, _TOPN_FIELDS + ("mira_clip",)),
    "mira-nbest-avg": (_mira_factory, True, _TOPN_FIELDS + ("mira_clip",)),
}
ALGORITHMS = tuple(_TRAINERS)


def _train_family(name, data, heldout, cfg, template_text, on_epoch_end, averaged=None):
    """``train``, after checking that ``cfg.algorithm`` is ``name`` or differs from it
    only in averaging and, when ``averaged`` is given, that it agrees with the algorithm."""
    factory, _, reads = _TRAINERS[name]
    algos = tuple(a for a, (f, _, r) in _TRAINERS.items() if (f, r) == (factory, reads))
    if cfg.algorithm not in algos:
        raise ConfigError(
            "this trainer requires cfg.algorithm in %s, got %r" % (algos, cfg.algorithm)
        )
    if averaged is not None and averaged != _TRAINERS[cfg.algorithm][1]:
        raise ConfigError(
            "averaged=%r contradicts cfg.algorithm %r" % (averaged, cfg.algorithm)
        )
    return train(data, heldout, cfg, template_text, on_epoch_end)


def train_sapo(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    return _train_family("sapo", data, heldout, cfg, template_text, on_epoch_end)


def train_crf_sgd(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    return _train_family("crf-sgd", data, heldout, cfg, template_text, on_epoch_end)


def train_perceptron(data, heldout, cfg: TrainConfig, template_text, averaged=None, on_epoch_end=None):
    return _train_family("perc", data, heldout, cfg, template_text, on_epoch_end, averaged)


def train_mira(data, heldout, cfg: TrainConfig, template_text, averaged=None, on_epoch_end=None):
    return _train_family("mira", data, heldout, cfg, template_text, on_epoch_end, averaged)


def train_mira_nbest(data, heldout, cfg: TrainConfig, template_text, averaged=None, on_epoch_end=None):
    return _train_family("mira-nbest", data, heldout, cfg, template_text, on_epoch_end, averaged)

"""Online trainers for linear-chain models.

Implements the search-based probabilistic online learner (SAPO): per
sample, search the top-n taggings, weight each candidate by its
normalized log-linear probability, downdate by the probability-weighted
candidate features, update by the oracle features, then shrink all
weights by (1 - lr * l2 / |S|).  Exact-inference SGD on the regularized
likelihood, the structured perceptron, and 1-best/n-best MIRA (naive and
averaged) share the same epoch orchestration.

The candidate downdates and the oracle update are applied as one merged
sparse delta, and the per-sample decay is a deferred global scale factor,
so a full pass costs O(touched features) per sample.  All trainers are
deterministic given (data, config, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluation import chunk_f1, token_accuracy
from .features import (
    Model,
    Sequence,
    build_model,
    compile_sequence,
    dot_sparse,
    path_items,
    weight_views,
)
from .inference import (
    candidate_mixture,
    compiled_objective,
    expected_items,
    forward_backward,
    labeled_sample,
    subtract_oracle,
    topn_distribution,
)
from .lattice import astar_nbest, beam_nbest, compiled_lattice, viterbi, viterbi_tags

ALGORITHMS = (
    "sapo",
    "crf-sgd",
    "perc",
    "perc-avg",
    "mira",
    "mira-avg",
    "mira-nbest",
    "mira-nbest-avg",
)

SEARCH_MODES = ("astar", "beam")
METRICS = ("accuracy", "chunk-f1")
FINITE_CHECK_INTERVAL = 1000
# A positive weight scale below this is folded into the weights (see
# WeightState.decay), long before it could underflow to 0.
SCALE_FLOOR = 1e-100
HILDRETH_MAX_PASSES = 100
HILDRETH_TOL = 1e-8


class ConfigError(ValueError):
    """Invalid training configuration or training inputs."""


class NonFiniteError(RuntimeError):
    """Weights became non-finite during training.

    ``sample_index`` is the last sample visited before the failed check, and
    ``window`` the number of samples visited since the last passing check.
    """

    def __init__(self, sample_index, epoch, window=1):
        msg = "non-finite weights detected after sample %d in epoch %d" % (sample_index, epoch)
        if window > 1:
            msg += " (within the %d samples visited since the last finite check)" % window
        super().__init__(msg)
        self.sample_index = sample_index
        self.epoch = epoch
        self.window = window


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
    lr_schedule: str = "fixed"  # "fixed" or "exp"
    lr_decay: float = 1.0  # per-epoch multiplier when lr_schedule == "exp"
    mira_clip: float = math.inf
    eval_every: int = 1
    metric: str = "accuracy"

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("unknown algorithm %r" % self.algorithm)
        if int(self.epochs) < 1:
            raise ConfigError("epochs must be >= 1")
        if int(self.n) < 1:
            raise ConfigError("n must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning rate must be > 0")
        if self.l2 < 0:
            raise ConfigError("l2 strength must be >= 0")
        if int(self.beam_width) < 1:
            raise ConfigError("beam width must be >= 1")
        if self.search not in SEARCH_MODES:
            raise ConfigError("search must be one of %s" % (SEARCH_MODES,))
        if self.lr_schedule not in ("fixed", "exp"):
            raise ConfigError("lr schedule must be 'fixed' or 'exp'")
        if self.lr_schedule == "exp" and not 0 < self.lr_decay <= 1:
            raise ConfigError("lr decay rate must be in (0, 1]")
        if not self.mira_clip > 0:
            raise ConfigError("MIRA clip must be > 0 (may be inf)")
        if int(self.eval_every) < 1:
            raise ConfigError("eval-every must be >= 1")
        if self.metric not in METRICS:
            raise ConfigError("metric must be one of %s" % (METRICS,))
        return self

    def snapshot(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": int(self.n),
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "epochs": int(self.epochs),
            "seed": int(self.seed),
            "search": self.search,
            "beam_width": int(self.beam_width),
            "lr_schedule": self.lr_schedule,
            "lr_decay": self.lr_decay,
            "mira_clip": self.mira_clip,
            "eval_every": int(self.eval_every),
            "metric": self.metric,
        }


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
        text = "\n".join(self.csv_lines()) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)


class WeightState:
    """Dense weights behind a deferred global scale factor.

    True weights are ``scale * v``.  Sparse updates touch only their own
    coordinates; the per-sample L2 decay multiplies ``scale`` in O(1).
    With averaging enabled, the running sum of post-update weight
    snapshots is maintained lazily per coordinate via prefix sums of the
    scale, so averaging also costs O(touched) per sample.
    """

    def __init__(self, n_features: int, averaging: bool = False):
        self.v = np.zeros(n_features)
        self.scale = 1.0
        self.samples = 0  # completed per-sample updates U
        self.cum_scale = 0.0  # sum of scale over completed samples
        self.averaging = averaging
        if averaging:
            self.acc = np.zeros(n_features)
            self.last_cum = np.zeros(n_features)

    def sparse_add(self, items, coeff: float):
        """w[fid] += coeff * value for each sparse item."""
        v = self.v
        c = self.scale
        if self.averaging:
            acc, last, cum = self.acc, self.last_cum, self.cum_scale
            for fid, value in items:
                acc[fid] += v[fid] * (cum - last[fid])
                last[fid] = cum
                v[fid] += coeff * value / c
        else:
            for fid, value in items:
                v[fid] += coeff * value / c

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

    def dot_items(self, items) -> float:
        return self.scale * dot_sparse(self.v, items)

    def finite(self) -> bool:
        return math.isfinite(self.scale) and bool(np.isfinite(self.v).all())

    def current_weights(self) -> np.ndarray:
        return self.v * self.scale

    def averaged_weights(self) -> np.ndarray:
        if not self.averaging:
            raise RuntimeError("averaging is not enabled")
        if self.samples == 0:
            return self.v.copy()
        pending = self.v * (self.cum_scale - self.last_cum)
        return (self.acc + pending) / self.samples


def _as_sequences(data):
    return list(getattr(data, "sequences", data))


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


def _metric(metric, sequences, predictions):
    return (chunk_f1 if metric == "chunk-f1" else token_accuracy)(sequences, predictions).value


def _train_engine(data, heldout, cfg, template_text, step_factory, averaged, on_epoch_end):
    cfg.validate()
    sequences = _as_sequences(data)
    if not sequences:
        raise ConfigError("training set is empty")
    held_sequences = _as_sequences(heldout) if heldout is not None else []
    for name, seqs in (("training", sequences), ("held-out", held_sequences)):
        for i, seq in enumerate(seqs):
            if seq.gold is None:
                raise ConfigError("%s sequence %d has no gold tagging" % (name, i))
    n_columns = len(sequences[0].tokens[0])
    model = build_model(sequences, template_text, n_columns)
    compiled = [compile_sequence(model, seq, labeled=True) for seq in sequences]
    held_compiled = [compile_sequence(model, seq, labeled=True) for seq in held_sequences]

    K = model.num_tags
    # (compiled sequence, oracle features F(x, y*)) per training sample
    samples = [(cs, path_items(cs.pos_feats, cs.gold, K, cs.trans_base)) for cs in compiled]
    state = WeightState(model.index.n_features, averaging=averaged)
    views = weight_views(state.v, model.index)

    def lattice_for(cs):
        return compiled_lattice(cs.pos_feats, views, state.scale)

    step = step_factory(model=model, samples=samples, state=state, cfg=cfg, lattice_for=lattice_for)

    rng = np.random.default_rng(cfg.seed)
    curve = TrainCurve()
    since_check = [0]
    final_weights = None

    def checked_step(i, gamma, epoch):
        step(i, gamma)
        state.end_sample()
        if not math.isfinite(state.scale):
            raise NonFiniteError(i, epoch)
        since_check[0] += 1
        if since_check[0] >= FINITE_CHECK_INTERVAL:
            if not state.finite():
                raise NonFiniteError(i, epoch, since_check[0])
            since_check[0] = 0

    for epoch in range(1, cfg.epochs + 1):
        if cfg.lr_schedule == "exp":
            gamma = cfg.learning_rate * cfg.lr_decay ** (epoch - 1)
        else:
            gamma = cfg.learning_rate
        order, seconds = run_epoch(lambda i: checked_step(i, gamma, epoch), samples, rng)
        if not state.finite():
            raise NonFiniteError(int(order[-1]), epoch, since_check[0])
        since_check[0] = 0
        weights = state.averaged_weights() if averaged else state.current_weights()
        objective = compiled_objective(compiled, weights, model.index, cfg.l2)
        wc = float(np.abs(weights).mean())
        held_metric = None
        if held_compiled and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            preds = viterbi_tags(model, held_compiled, weights)
            held_metric = _metric(cfg.metric, held_sequences, preds)
        curve.points.append(
            CurvePoint(
                epoch=epoch,
                objective=objective,
                heldout_metric=held_metric,
                w_complexity=wc,
                epoch_seconds=seconds,
            )
        )
        if on_epoch_end is not None:
            on_epoch_end(epoch, weights)
        final_weights = weights

    model.weights = final_weights
    train_acc = _metric("accuracy", sequences, viterbi_tags(model, compiled, final_weights))
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
    sorted by id, exact zeros dropped); ``decay`` is the L2 coefficient
    lambda/|S| whose dense contribution ``decay * w`` is applied by the
    trainer as a multiplicative shrink.
    """

    items: list[tuple[int, float]]
    decay: float
    kind: str


def _nbest(lat, n, search, beam):
    """Top-n candidates by exact A* or by width-limited beam search."""
    if search == "astar":
        return astar_nbest(lat, n)
    if search == "beam":
        return beam_nbest(lat, n, beam)
    raise ValueError("search must be 'astar' or 'beam'")


def _sapo_items(lat, cs, oracle, n, search, beam):
    """Top-n probability-weighted candidate features minus the oracle's."""
    nb = topn_distribution(_nbest(lat, n, search, beam))
    mixture = candidate_mixture(cs.pos_feats, nb.paths, nb.probs, lat.K, cs.trans_base)
    return subtract_oracle(mixture, oracle)


def _crf_items(lat, cs, oracle):
    """Exact expected features minus the oracle's."""
    mixture = expected_items(cs.pos_feats, forward_backward(lat), lat.K, cs.trans_base)
    return subtract_oracle(mixture, oracle)


def crf_stochastic_gradient(m: Model, z: Sequence, l2: float, dataset_size: int) -> UpdateTerm:
    """Exact per-sample gradient of the regularized negative log-likelihood.

    Sparse part is E_P[F] - F(x, y*), assembled from node/edge marginals;
    the dense part is (l2 / dataset_size) * w, reported via ``decay``.
    """
    return UpdateTerm(_crf_items(*labeled_sample(m, z)), l2 / dataset_size, "crf_gradient")


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
    tagging is neither forced in nor excluded.
    """
    items = _sapo_items(*labeled_sample(m, z), n, search, beam)
    return UpdateTerm(items, l2 / dataset_size, "sapo_term")


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
    sapo = cfg.algorithm == "sapo"

    def step(i, gamma):
        cs, oracle = samples[i]
        lat = lattice_for(cs)
        if sapo:
            items = _sapo_items(lat, cs, oracle, cfg.n, cfg.search, cfg.beam_width)
        else:
            items = _crf_items(lat, cs, oracle)
        state.sparse_add(items, -gamma)
        state.decay(1.0 - gamma * decay_l2)

    return step


def _perceptron_factory(model, samples, state, cfg, lattice_for):
    K = model.num_tags

    def step(i, gamma):
        cs, oracle = samples[i]
        pred, _ = viterbi(lattice_for(cs))
        if pred == cs.gold:
            return
        items = subtract_oracle(path_items(cs.pos_feats, pred, K, cs.trans_base), oracle)
        state.sparse_add(items, -1.0)

    return step


def _hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def _pa_step_size(loss, margin, normsq, clip):
    """Passive-aggressive step: min(clip, (loss - margin) / ||dF||^2), >= 0."""
    viol = loss - margin
    if viol <= 0.0:
        return 0.0
    alpha = viol / normsq
    if alpha > clip:
        return clip
    return alpha


def _mira_factory(model, samples, state, cfg, lattice_for):
    K = model.num_tags
    clip = cfg.mira_clip

    def step(i, gamma):
        cs, oracle = samples[i]
        pred, _ = viterbi(lattice_for(cs))
        if pred == cs.gold:
            return
        # F(pred) - F(gold) = -dF
        items = subtract_oracle(path_items(cs.pos_feats, pred, K, cs.trans_base), oracle)
        if not items:
            return  # feature-identical outputs: no usable direction
        normsq = 0.0
        for _, value in items:
            normsq += value * value
        margin = -state.dot_items(items)  # w . dF
        alpha = _pa_step_size(_hamming(pred, cs.gold), margin, normsq, clip)
        if alpha > 0.0:
            state.sparse_add(items, -alpha)

    return step


def _sparse_dot(a_items, b_dict):
    total = 0.0
    for fid, value in a_items:
        other = b_dict.get(fid)
        if other is not None:
            total += value * other
    return total


def _mira_nbest_factory(model, samples, state, cfg, lattice_for):
    K = model.num_tags
    clip = cfg.mira_clip

    def step(i, gamma):
        cs, oracle = samples[i]
        nb = _nbest(lattice_for(cs), cfg.n, cfg.search, cfg.beam_width)
        cands = []  # (items, item_dict, loss, margin)
        for path in nb.paths:
            loss = _hamming(path, cs.gold)
            if loss == 0:
                continue
            items = subtract_oracle(path_items(cs.pos_feats, path, K, cs.trans_base), oracle)
            if not items:
                continue
            cands.append((items, dict(items), loss, -state.dot_items(items)))
        if not cands:
            return
        nc = len(cands)
        gram = [[0.0] * nc for _ in range(nc)]
        for a in range(nc):
            for b in range(a, nc):
                g = _sparse_dot(cands[a][0], cands[b][1])
                gram[a][b] = gram[b][a] = g
        alphas = [0.0] * nc
        for _ in range(HILDRETH_MAX_PASSES):
            changed = False
            for k in range(nc):
                items_k, _, loss_k, margin_k = cands[k]
                adj = margin_k
                for j in range(nc):
                    if alphas[j] != 0.0:
                        adj += alphas[j] * gram[k][j]
                new = alphas[k] + (loss_k - adj) / gram[k][k]
                if new < 0.0:
                    new = 0.0
                elif new > clip:
                    new = clip
                if abs(new - alphas[k]) > HILDRETH_TOL:
                    alphas[k] = new
                    changed = True
            if not changed:
                break
        update: dict[int, float] = {}
        for k in range(nc):
            a_k = alphas[k]
            if a_k == 0.0:
                continue
            for fid, value in cands[k][0]:
                update[fid] = update.get(fid, 0.0) + a_k * value
        if update:
            state.sparse_add(sorted(update.items()), -1.0)

    return step


# ---------------------------------------------------------------------------
# Public trainer entry points

# algorithm -> (step factory, averaged)
_TRAINERS = {
    "sapo": (_sgd_factory, False),
    "crf-sgd": (_sgd_factory, False),
    "perc": (_perceptron_factory, False),
    "perc-avg": (_perceptron_factory, True),
    "mira": (_mira_factory, False),
    "mira-avg": (_mira_factory, True),
    "mira-nbest": (_mira_nbest_factory, False),
    "mira-nbest-avg": (_mira_nbest_factory, True),
}


def train(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    """Train with the algorithm selected by ``cfg.algorithm``."""
    factory, averaged = _TRAINERS[cfg.validate().algorithm]
    return _train_engine(data, heldout, cfg, template_text, factory, averaged, on_epoch_end)


def _train_family(algos, data, heldout, cfg, template_text, averaged, on_epoch_end):
    """Run one algorithm family; ``averaged`` overrides the table's flag."""
    if cfg.algorithm not in algos:
        raise ConfigError(
            "this trainer requires cfg.algorithm in %s, got %r" % (algos, cfg.algorithm)
        )
    factory = _TRAINERS[cfg.algorithm][0]
    return _train_engine(data, heldout, cfg, template_text, factory, averaged, on_epoch_end)


def train_sapo(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    return _train_family(("sapo",), data, heldout, cfg, template_text, False, on_epoch_end)


def train_crf_sgd(data, heldout, cfg: TrainConfig, template_text, on_epoch_end=None):
    return _train_family(("crf-sgd",), data, heldout, cfg, template_text, False, on_epoch_end)


def train_perceptron(data, heldout, cfg: TrainConfig, template_text, averaged=False, on_epoch_end=None):
    return _train_family(
        ("perc", "perc-avg"), data, heldout, cfg, template_text, averaged, on_epoch_end
    )


def train_mira(data, heldout, cfg: TrainConfig, template_text, averaged=False, on_epoch_end=None):
    return _train_family(
        ("mira", "mira-avg"), data, heldout, cfg, template_text, averaged, on_epoch_end
    )


def train_mira_nbest(data, heldout, cfg: TrainConfig, template_text, averaged=False, on_epoch_end=None):
    return _train_family(
        ("mira-nbest", "mira-nbest-avg"), data, heldout, cfg, template_text, averaged, on_epoch_end
    )

"""Outside-in layer timing for the sapo package.

Each public function listed in ``LAYERS`` is rebound, in every ``sapo``
module namespace that holds it, to a wrapper that counts calls and
accumulates inclusive and self time.  Self time is a call's wall time
minus the wall time of the wrapped calls made inside it, so the self
times of all wrapped functions partition the wall time of the outermost
wrapped call (``cli.main``).  Nothing under ``src/`` is edited; the
original bindings are restored by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> public functions measured as that module's layer.  ``training``
# and ``cli`` import names from ``lattice``, ``inference``, ``dataio`` and
# ``evaluation`` into their own namespaces, so every binding of the same
# object is rebound, not only the defining one.
LAYERS = {
    "features": ("build_model", "position_features"),
    "lattice": (
        "build_lattice",
        "emission_scores",
        "viterbi",
        "astar_nbest",
        "beam_nbest",
        "path_score",
    ),
    "inference": (
        "forward_logz",
        "forward_backward",
        "candidate_mixture",
        "expected_items",
        "subtract_oracle",
        "topn_distribution",
        "path_items",
        "delta_diagnostic",
    ),
    "training": ("run_epoch", "WeightState.sparse_add"),
    "dataio": ("read_conll", "write_conll", "load_model", "save_model", "generate_synthetic_hmm"),
    "evaluation": ("token_accuracy",),
    "cli": ("main",),
}

ROOT_KEY = "cli.main"
LATENCY_KEY = "lattice.astar_nbest"  # per-call durations kept for percentiles
ITEMS_KEY = "training.sparse_add"  # len(items) summed per call


def metric_keys():
    """``<module>.<fn>`` for every wrapped function, in ``LAYERS`` order."""
    return ["%s.%s" % (mod, name.rsplit(".", 1)[-1]) for mod, names in LAYERS.items()
            for name in names]


def _sapo_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sapo" or n.startswith("sapo."))]


class Tracer:
    """Counters and self-time accumulators for one traced stretch of work."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.items = 0
        self.latencies = []
        self._stack = []  # child wall time accumulated per active wrapped call
        self._saved = []  # (owner, attribute, original) in install order

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.items = 0
        self.latencies.clear()

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        keep_latency = key == LATENCY_KEY
        count_items = key == ITEMS_KEY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_items:
                self.items += len(args[1])
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - t0
                child = stack.pop()
                calls[key] += 1
                self_s[key] += total - child
                total_s[key] += total
                if stack:
                    stack[-1] += total
                if keep_latency:
                    self.latencies.append(total)

        return wrapper

    def install(self):
        """Rebind every listed function in every sapo namespace holding it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name in LAYERS:
            importlib.import_module("sapo." + mod_name)
        modules = _sapo_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, names in LAYERS.items():
            home = by_name["sapo." + mod_name]
            for name in names:
                key = "%s.%s" % (mod_name, name.rsplit(".", 1)[-1])
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, self._wrap(key, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every original binding, last rebound first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ``sapo`` command line.

Run from the repository root:

    python3 bench/run.py --workload train-k5 --seed 1 --seconds 50 --trace 0

Set-up writes seeded CoNLL and template files; the timed part is a closed
loop in this single process, one ``sapo.cli.main([...])`` call at a time,
repeating rounds of the five trainers and the three read-path commands
while another round fits in ``--seconds``.  Every output is checked.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, or the per-layer metrics with ``--trace 1`` (rounds
then alternate untraced and traced; see ``layertrace.py``).  The line
before it records the environment and the raw timings.  The exit code is
nonzero when any output check fails.  See README.md.
"""

import os

# Pin BLAS threading before numpy is imported (through sapo or directly).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import layertrace  # noqa: E402
import numpy as np  # noqa: E402

# Criterion 7/8 templates.
TEMPLATES = (
    "U00:%x[-1,0]\nU01:%x[0,0]\nU02:%x[1,0]\n"
    "U03:%x[-1,0]/%x[0,0]\nU04:%x[-1,0]/%x[0,0]/%x[1,0]\nB\n"
)

# Both workloads share corpus shapes and differ only in the tagset size, so
# token counts and feature work per token match and only the K-dependent
# kernels (search, forward-backward, dense CRF update) change.  K=5 is
# dominated by per-token Python work and the per-epoch passes; K=45 by the
# K^2 kernels.
WORKLOADS = {
    "train-k5": {"K": 5, "V": 50},
    "train-k45": {"K": 45, "V": 450},
}
# One HMM per workload: its generator seed (criterion 7/8's corpus seed) fixes
# the transition structure, which sets how hard the data is and so how much
# work search and MIRA do per token.  The run seed only draws which pool
# sequences a run uses, so seeds are replicates of one workload.
HMM_SEED, SEPARABILITY, POOL_COUNT, POOL_T_MEAN = 2024, 0.5, 3000, 10
TRAIN_COUNT, HELD_COUNT = 500, 200
# Read-path corpus: unseen pool sequences joined in pairs (mean length 20).
TAG_COUNT = 400
DIAG_SAMPLES = 40
DIAG_N_LIST = (1, 2, 5, 10, 50)
NBEST = 5
EPOCHS = 1
SETUP_REPEATS = 9
# Address-space cap of the process.  A run peaks at about 230 MB of address
# space at K=45, and at about 570 MB on the seeds where A* n-best blows up
# but completes.  An op that runs away fails with MemoryError at the cap
# instead of taking the memory of a shared host (see README.md, "Known
# defect: A* n-best on near-ties").
MEMORY_CAP_MB = 1024

TRAINERS = {
    "sapo-astar": ["--algo", "sapo", "--n", "5", "--lr", "0.02", "--l2", "1"],
    "sapo-beam": ["--algo", "sapo", "--n", "5", "--lr", "0.02", "--l2", "1",
                  "--search", "beam", "--beam", "50"],
    "crf-sgd": ["--algo", "crf-sgd", "--lr", "0.02", "--l2", "1"],
    "perc": ["--algo", "perc"],
    "mira-nbest-avg": ["--algo", "mira-nbest-avg", "--n", "5"],
}
TAG_MODEL = "sapo-astar"  # the read path tags with the model this op writes
READ_OPS = ("decode", "nbest", "diagnose")
OPS = tuple(TRAINERS) + READ_OPS


class CheckError(Exception):
    """An op's output failed a correctness check."""


# ---------------------------------------------------------------------------
# Reference task
#
# The host is shared, and its speed changes in phases that last from seconds
# to minutes: the same code runs at two levels about 1.5x apart, so wall
# times of one op vary by up to 1.8x from call to call and from run to run.
# Every op is therefore also timed in units of a fixed reference task, run
# right before and right after it.  The task is benchmark code that no change
# to sapo can speed up, and it slows down with the host much as the ops do.

_REF_ARRAY = np.arange(45.0 * 45.0).reshape(45, 45)


def reference_seconds():
    """Wall time of the reference task: a Python float loop and small numpy calls."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(300000):
        s += i * 0.5
    for _ in range(2000):
        _REF_ARRAY.max(axis=0)
    return time.perf_counter() - t0


def cap_memory():
    """Limits the address space to ``MEMORY_CAP_MB`` (or the hard limit, if lower)."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_MB * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


# ---------------------------------------------------------------------------
# Set-up


def _tokens(sequences):
    return sum(len(s) for s in sequences)


def setup(work, spec, seed):
    """Write the seeded input files; returns file paths and token counts."""
    import sapo

    pool = sapo.generate_synthetic_hmm(
        K=spec["K"], V=spec["V"], T_mean=POOL_T_MEAN, count=POOL_COUNT,
        seed=HMM_SEED, separability=SEPARABILITY,
    ).sequences
    picks = [pool[i] for i in np.random.default_rng(seed).permutation(POOL_COUNT)]
    train = sapo.Corpus(picks[:TRAIN_COUNT], n_columns=1)
    held = sapo.Corpus(picks[TRAIN_COUNT:TRAIN_COUNT + HELD_COUNT], n_columns=1)
    rest = picks[TRAIN_COUNT + HELD_COUNT:]
    tag = sapo.Corpus([sapo.Sequence(tokens=a.tokens + b.tokens, gold=a.gold + b.gold)
                       for a, b in zip(rest[0:2 * TAG_COUNT:2], rest[1:2 * TAG_COUNT:2])],
                      n_columns=1)
    files = {name: os.path.join(work, name) for name in
             ("train.conll", "held.conll", "tag.conll", "templates.txt")}
    sapo.write_conll(train, files["train.conll"])
    sapo.write_conll(held, files["held.conll"])
    sapo.write_conll(tag, files["tag.conll"])
    with open(files["templates.txt"], "w", encoding="utf-8", newline="\n") as f:
        f.write(TEMPLATES)
    return {
        "files": files,
        "train_tokens": _tokens(train.sequences),
        "tag_tokens": _tokens(tag.sequences),
        "tag_lengths": [len(s) for s in tag.sequences],
        "diag_tokens": _tokens(tag.sequences[:DIAG_SAMPLES]),
    }


# ---------------------------------------------------------------------------
# Ops and their output checks


def op_argv(op, inputs, work):
    f = inputs["files"]
    if op in TRAINERS:
        return ["train", "--train", f["train.conll"], "--heldout", f["held.conll"],
                "--templates", f["templates.txt"], "--epochs", str(EPOCHS), "--seed", "1",
                "--model-out", os.path.join(work, "model-%s.txt" % op),
                "--curves", os.path.join(work, "curves-%s.csv" % op)] + TRAINERS[op]
    model = os.path.join(work, "model-%s.txt" % TAG_MODEL)
    if op == "decode":
        return ["decode", "--model", model, "--input", f["tag.conll"],
                "--output", os.path.join(work, "decode.out")]
    if op == "nbest":
        return ["decode", "--model", model, "--input", f["tag.conll"],
                "--output", os.path.join(work, "nbest.out"), "--nbest", str(NBEST)]
    return ["diagnose", "--model", model, "--data", f["tag.conll"],
            "--n-list", ",".join(str(n) for n in DIAG_N_LIST),
            "--samples", str(DIAG_SAMPLES), "--out", os.path.join(work, "diagnose.csv")]


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def check_train(op, work):
    """Returns (stable output text, final held-out accuracy, summed epoch seconds)."""
    rows = _read(os.path.join(work, "curves-%s.csv" % op)).splitlines()
    if rows[0] != "epoch,objective,heldout_metric,w_complexity,epoch_seconds":
        raise CheckError("%s: unexpected curve header %r" % (op, rows[0]))
    if len(rows) != EPOCHS + 1:
        raise CheckError("%s: %d curve rows for %d epochs" % (op, len(rows) - 1, EPOCHS))
    stable, loop_s = [], 0.0
    for row in rows[1:]:
        epoch, objective, heldout, wc, seconds = row.split(",")
        if not math.isfinite(float(objective)):
            raise CheckError("%s: non-finite objective in epoch %s" % (op, epoch))
        loop_s += float(seconds)
        stable.append(row.rsplit(",", 1)[0])
    acc = float(rows[-1].split(",")[2])
    if not 0.0 <= acc <= 1.0:
        raise CheckError("%s: held-out accuracy %r outside [0, 1]" % (op, acc))
    model = _read(os.path.join(work, "model-%s.txt" % op))
    return "\n".join(stable) + "\n" + model, acc, loop_s


def _blocks(text):
    return [b.splitlines() for b in text.split("\n\n") if b.strip()]


def check_decode(work, inputs):
    """Returns (output text, predicted tag list per sequence)."""
    text = _read(os.path.join(work, "decode.out"))
    blocks = _blocks(text)
    if [len(b) for b in blocks] != inputs["tag_lengths"]:
        raise CheckError("decode: output sequence lengths differ from the input")
    return text, [[line.split("\t")[-1] for line in b] for b in blocks]


def check_nbest(work, inputs, decoded):
    text = _read(os.path.join(work, "nbest.out"))
    per_seq = {}
    for block in _blocks(text):
        head = dict(kv.split("=") for kv in block[0].lstrip("# ").split(" "))
        per_seq.setdefault(int(head["seq"]), []).append(
            (int(head["rank"]), float(head["score"]), float(head["prob"]),
             [line.split("\t")[-1] for line in block[1:]]))
    if sorted(per_seq) != list(range(len(inputs["tag_lengths"]))):
        raise CheckError("nbest: output does not cover every input sequence")
    for si, entries in per_seq.items():
        if [e[0] for e in entries] != list(range(1, len(entries) + 1)):
            raise CheckError("nbest: seq %d ranks out of order" % si)
        if entries[0][3] != decoded[si]:
            raise CheckError("nbest: seq %d top-1 differs from decode" % si)
        if abs(math.fsum(e[2] for e in entries) - 1.0) > 1e-9:
            raise CheckError("nbest: seq %d probabilities do not sum to 1" % si)
        scores = [e[1] for e in entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise CheckError("nbest: seq %d scores increase down the list" % si)
    return text


def check_diagnose(work):
    text = _read(os.path.join(work, "diagnose.csv"))
    rows = text.splitlines()
    m = len(DIAG_N_LIST)
    if rows[0] != "n,l2_delta,linf_delta,tail_mass" or len(rows) != 1 + m * (DIAG_SAMPLES + 1):
        raise CheckError("diagnose: unexpected CSV shape")
    body = [r.split(",") for r in rows[1:]]
    for b in range(0, len(body), m):
        block = body[b:b + m]
        if [int(r[0]) for r in block] != list(DIAG_N_LIST):
            raise CheckError("diagnose: block %d has the wrong n column" % (b // m))
        tails = [float(r[3]) for r in block]
        if not all(0.0 <= t <= 1.0 for t in tails):
            raise CheckError("diagnose: tail_mass outside [0, 1] in block %d" % (b // m))
        if any(y > x for x, y in zip(tails, tails[1:])):
            raise CheckError("diagnose: tail_mass increases with n in block %d" % (b // m))
    return text


class Runner:
    """Runs rounds of ops, checks their outputs and keeps per-op records."""

    def __init__(self, work, inputs):
        import sapo.cli

        self.cli = sapo.cli
        self.work = work
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first_output = {}  # op -> output text of its first successful run
        self.wall = {op: [] for op in OPS}
        self.ref_units = {op: [] for op in OPS}  # wall / reference time
        self.traced_units = {op: [] for op in OPS}
        self.ref_s = []
        self.loop_s = {op: [] for op in TRAINERS}
        self.acc = {}
        self.decoded = None
        self.traced = False

    def run_op(self, op):
        """One op; returns its wall seconds, or None when it failed."""
        self.attempted += 1
        argv = op_argv(op, self.inputs, self.work)
        sink = io.StringIO()
        before = self.ref_s[-1] if self.ref_s else reference_seconds()
        t0 = time.perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(sink):
                    rc = self.cli.main(argv)
            finally:
                wall = time.perf_counter() - t0
                self.ref_s.append(reference_seconds())
            if rc != 0:
                raise CheckError("%s: exit code %r" % (op, rc))
            if op in TRAINERS:
                text, self.acc[op], loop_s = check_train(op, self.work)
            elif op == "decode":
                text, self.decoded = check_decode(self.work, self.inputs)
            elif op == "nbest":
                if self.decoded is None:
                    raise CheckError("nbest: no decode output to compare with")
                text = check_nbest(self.work, self.inputs, self.decoded)
            else:
                text = check_diagnose(self.work)
            if self.first_output.setdefault(op, text) != text:
                raise CheckError("%s: output differs from its first run" % op)
        except Exception as e:  # an op failure is counted, reported and survived
            self.failed += 1
            why = e if str(e) or not isinstance(e, MemoryError) else (
                "address-space cap of %d MB reached" % MEMORY_CAP_MB)
            print("op failed: %s: %s: %s" % (op, type(e).__name__, why), file=sys.stderr)
            return None
        units = 2.0 * wall / (before + self.ref_s[-1])
        if self.traced:
            self.traced_units[op].append(units)
        else:
            self.wall[op].append(wall)
            self.ref_units[op].append(units)
            if op in TRAINERS:
                self.loop_s[op].append(loop_s)
        return wall

    def run_round(self):
        for op in OPS:
            self.run_op(op)


def traced_round(runner, totals):
    """All ops once under the layer tracer; counters go to ``totals``."""
    tracer = layertrace.Tracer()
    runner.traced = True
    try:
        with tracer:
            for op in OPS:
                tracer.reset()
                totals.add_op(op, tracer, runner.run_op(op))
    finally:
        runner.traced = False
    totals.rounds += 1


# ---------------------------------------------------------------------------
# Metrics


def _median(values):
    return statistics.median(values) if values else float("nan")


def _rate(work, units):
    return _median([work / u for u in units])


def op_work(inputs):
    """Tokens each op processes per call."""
    work = {op: EPOCHS * inputs["train_tokens"] for op in TRAINERS}
    work.update(decode=inputs["tag_tokens"], nbest=inputs["tag_tokens"],
                diagnose=inputs["diag_tokens"])
    return work


def end_to_end(runner, inputs, setup_times):
    """Op rates in tokens per reference-task time (``tok/ref``), medians over calls."""
    m = {}
    work = op_work(inputs)
    for op in TRAINERS:
        m["train.%s.tok_per_ref" % op] = (_rate(work[op], runner.ref_units[op]), "tok/ref")
    for op in READ_OPS:
        m["%s.tok_per_ref" % op] = (_rate(work[op], runner.ref_units[op]), "tok/ref")
    m["setup_s"] = (_median(setup_times), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["ops_ok_frac"] = (1.0 - runner.failed / max(runner.attempted, 1), "ratio")
    return m


class TraceTotals:
    """Per-layer counters summed over the traced rounds of a run."""

    def __init__(self):
        self.rounds = 0
        self.calls, self.self_s, self.total_s = {}, {}, {}
        self.items = 0
        self.latencies = []
        self.sparse_calls = {op: 0 for op in TRAINERS}
        self.op_self = {op: {} for op in OPS}  # op -> key -> self seconds
        self.op_wall = {op: 0.0 for op in OPS}

    def add_op(self, op, tracer, wall):
        for key, value in tracer.calls.items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in tracer.self_s.items():
            self.self_s[key] = self.self_s.get(key, 0.0) + value
            shares = self.op_self[op]
            shares[key] = shares.get(key, 0.0) + value
        for key, value in tracer.total_s.items():
            self.total_s[key] = self.total_s.get(key, 0.0) + value
        self.items += tracer.items
        self.latencies.extend(tracer.latencies)
        if op in TRAINERS:
            self.sparse_calls[op] += tracer.calls.get(layertrace.ITEMS_KEY, 0)
        self.op_wall[op] += wall or 0.0


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def per_layer(totals, setup_tracer, runner):
    m = {}
    r = max(totals.rounds, 1)
    for key in layertrace.metric_keys():
        m[key + ".calls"] = (totals.calls.get(key, 0) / r, "count")
        m[key + ".self_s"] = (totals.self_s.get(key, 0.0) / r, "s")
    # The generator runs only in set-up: report it per set-up instead.
    key = "dataio.generate_synthetic_hmm"
    m[key + ".calls"] = (setup_tracer.calls.get(key, 0), "count")
    m[key + ".self_s"] = (setup_tracer.self_s.get(key, 0.0), "s")
    m["training.sparse_add.items"] = (totals.items / r, "count")
    lat = sorted(totals.latencies)
    m["lattice.astar_nbest.p50_us"] = (_percentile(lat, 0.50) * 1e6, "us")
    m["lattice.astar_nbest.p99_us"] = (_percentile(lat, 0.99) * 1e6, "us")
    samples = EPOCHS * TRAIN_COUNT * r
    # Sample-loop and wall times come from the untraced rounds, so the
    # wrappers' cost does not distort them; update rates from traced ones.
    for op in TRAINERS:
        loop = _median(runner.loop_s[op])
        m["training.%s.sample_loop_s" % op] = (loop, "s")
        m["training.%s.epoch_passes_s" % op] = (_median(runner.wall[op]) - loop, "s")
        m["training.%s.update_rate" % op] = (totals.sparse_calls[op] / samples, "ratio")
        m["training.%s.heldout_acc" % op] = (runner.acc.get(op, float("nan")), "ratio")
    beam = _median(runner.loop_s["sapo-beam"])
    m["training.crit8.beam_over_perc"] = (beam / _median(runner.loop_s["perc"]), "ratio")
    m["training.crit8.beam_over_crf"] = (beam / _median(runner.loop_s["crf-sgd"]), "ratio")
    root = totals.total_s.get(layertrace.ROOT_KEY, 0.0)
    below = sum(v for k, v in totals.self_s.items() if k != layertrace.ROOT_KEY)
    m["trace.coverage"] = (below / root if root else 0.0, "ratio")
    # In reference units, as for the end-to-end rates, so host phases cancel.
    plain = sum(_median(u) for u in runner.ref_units.values())
    traced = sum(_median(u) for u in runner.traced_units.values())
    m["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    return m


def op_shares(totals):
    """Per op: each layer's self time as a share of the op's wall time."""
    return {op: {k: round(v / totals.op_wall[op], 4) for k, v in sorted(selfs.items())}
            for op, selfs in totals.op_self.items() if totals.op_wall[op]}


# ---------------------------------------------------------------------------
# Environment


def environment(workload, seed, seconds, trace):
    import numpy
    import sapo

    digest = hashlib.sha256()
    pkg = os.path.dirname(sapo.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = _read(head).strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            ref = _read(ref_path).strip() if os.path.isfile(ref_path) else ref
        commit = ref
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import sapo

    if os.path.dirname(os.path.dirname(os.path.abspath(sapo.__file__))) != SRC:
        raise SystemExit("sapo was imported from %s, not from %s" % (sapo.__file__, SRC))

    cap_memory()
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        setup_times = []
        setup_tracer = layertrace.Tracer()
        for i in range(SETUP_REPEATS):
            traced = args.trace and i == SETUP_REPEATS - 1
            with setup_tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                inputs = setup(work, WORKLOADS[args.workload], args.seed)
                setup_times.append(time.perf_counter() - t0)

        runner = Runner(work, inputs)
        totals = TraceTotals()
        walls_plain, walls_traced = [], []
        # Rounds alternate untraced/traced with --trace 1.  A new round starts
        # only if the last one would still fit in --seconds, so a run lasts
        # about --seconds; at least one round of each kind always runs.
        start = time.perf_counter()
        while True:
            if args.trace and len(walls_traced) < len(walls_plain):
                t0 = time.perf_counter()
                traced_round(runner, totals)
                walls_traced.append(time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                runner.run_round()
                walls_plain.append(time.perf_counter() - t0)
            if runner.failed:  # the result is already incorrect; repeats add nothing
                break
            last = max(walls_plain[-1:] + walls_traced[-1:])
            if (not args.trace or walls_traced) and time.perf_counter() - start + last > args.seconds:
                break

        if args.trace:
            metrics = per_layer(totals, setup_tracer, runner)
        else:
            metrics = end_to_end(runner, inputs, setup_times)
        work_per_call = op_work(inputs)
        detail = {"env": environment(args.workload, args.seed, args.seconds, args.trace),
                  "tok_per_s": {op: _rate(work_per_call[op], runner.wall[op]) for op in OPS},
                  "op_s": {op: [round(w, 3) for w in runner.wall[op]] for op in OPS},
                  "ref_s_median": _median(runner.ref_s),
                  "op_units": {op: [round(u, 3) for u in runner.ref_units[op]] for op in OPS},
                  "round_s": [round(w, 3) for w in walls_plain],
                  "traced_round_s": [round(w, 3) for w in walls_traced]}
        if args.trace:
            detail["op_layer_shares"] = op_shares(totals)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    correct = runner.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # A metric without a value (its op failed) is null, not NaN, to keep the line JSON.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

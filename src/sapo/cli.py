"""Command-line interface: train / decode / eval / diagnose / generate.

Every flag is validated before any file I/O.  Exit codes: 0 success,
1 validation failure, 2 I/O failure, 3 numeric failure (non-finite
weights or scores).  Each command prints a single human-readable summary line.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from .dataio import (
    FormatError,
    ModelFileError,
    check_writable,
    generate_synthetic_hmm,
    load_model,
    read_conll,
    read_text,
    save_model,
    write_conll,
    write_text,
)
from .evaluation import SCORERS, ChunkTagError
from .features import compile_corpus, weight_views
from .inference import DeltaReport, delta_csv_lines, delta_diagnostics, topn_distribution
from .lattice import astar_nbest, searched, viterbi_tags
from .training import (
    _TRAINERS,
    ALGORITHMS,
    METRICS,
    SEARCH_MODES,
    NonFiniteError,
    TrainConfig,
    train,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a flag's default to its help, unless the flag has none (None)."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _build_parser():
    parser = _Parser(prog="sapo", description="Linear-chain sequence labeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _HelpFormatter

    p = sub.add_parser("train", help="train a model", formatter_class=fmt)
    flags = {}  # TrainConfig field -> its flag

    def config_flag(flag, field, help, **kwargs):
        # Unset flags stay None, so that TrainConfig supplies their defaults
        # and cmd_train can tell which algorithm-specific flags were given.
        help = "%s (default: %s)" % (help, getattr(TrainConfig, field))
        p.add_argument(flag, dest=field, default=None, help=help, **kwargs)
        flags[field] = flag

    p.add_argument("--algo", required=True, choices=ALGORITHMS, help="training algorithm")
    p.add_argument("--train", required=True, metavar="PATH", help="labeled training corpus")
    p.add_argument("--templates", required=True, metavar="PATH", help="feature template file")
    p.add_argument("--heldout", metavar="PATH", default=None, help="labeled held-out corpus")
    config_flag("--n", "n", "top-n candidate count", type=int)
    config_flag("--lr", "learning_rate", "learning rate", type=float)
    config_flag("--l2", "l2", "L2 strength", type=float)
    config_flag("--epochs", "epochs", "training epochs", type=int)
    config_flag("--seed", "seed", "random seed", type=int)
    config_flag("--search", "search", "top-n search mode", choices=SEARCH_MODES)
    config_flag("--beam", "beam_width", "beam width", type=int)
    config_flag("--lr-decay", "lr_decay", "per-epoch learning-rate multiplier", type=float)
    config_flag("--mira-c", "mira_clip", "MIRA step-size clip", type=float)
    config_flag("--eval-every", "eval_every", "epochs between held-out evaluations", type=int)
    config_flag("--metric", "metric", "held-out metric", choices=METRICS)
    p.add_argument("--curves", metavar="PATH", default=None, help="per-epoch curve CSV output")
    p.add_argument("--model-out", dest="model_out", metavar="PATH", default=None,
                   help="model file output")
    p.set_defaults(func=cmd_train, flags=flags)

    p = sub.add_parser("decode", help="tag a corpus with a trained model", formatter_class=fmt)
    p.add_argument("--model", required=True, metavar="PATH", help="model file")
    p.add_argument("--input", required=True, metavar="PATH", help="input corpus")
    p.add_argument("--output", required=True, metavar="PATH", help="tagged output")
    p.add_argument("--nbest", type=int, default=None,
                   help="emit this many candidates per sequence with probabilities")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score predictions against gold tags", formatter_class=fmt)
    p.add_argument("--gold", required=True, metavar="PATH", help="gold corpus")
    p.add_argument("--pred", required=True, metavar="PATH",
                   help="predictions (last column) corpus")
    p.add_argument("--metric", choices=METRICS, default="accuracy", help="evaluation metric")
    p.add_argument("--per-tag", dest="per_tag", metavar="PATH", default=None,
                   help="optional per-tag CSV output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="gradient-approximation deviation report",
                       formatter_class=fmt)
    p.add_argument("--model", required=True, metavar="PATH", help="model file")
    p.add_argument("--data", required=True, metavar="PATH", help="labeled corpus")
    p.add_argument("--n-list", dest="n_list", default="1,2,5,10,50",
                   help="comma-separated candidate counts")
    p.add_argument("--samples", type=int, default=1, help="number of samples to probe")
    p.add_argument("--out", required=True, metavar="PATH", help="CSV output")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("generate", help="generate a synthetic labeled corpus",
                       formatter_class=fmt)
    p.add_argument("--out", required=True, metavar="PATH", help="corpus output")
    p.add_argument("--count", type=int, default=100, help="number of sequences")
    p.add_argument("--tags", type=int, default=5, help="tagset size")
    p.add_argument("--vocab", type=int, default=50, help="vocabulary size")
    p.add_argument("--mean-length", dest="mean_length", type=float, default=10.0,
                   help="mean sequence length")
    p.add_argument("--seed", type=int, default=1, help="random seed")
    p.add_argument("--separability", type=float, default=0.5,
                   help="word/tag informativeness in [0, 1]")
    p.set_defaults(func=cmd_generate)

    return parser


def cmd_train(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if f.name != "algorithm"}
    given = {f: v for f, v in given.items() if v is not None}
    reads = _TRAINERS[args.algo][2]
    # Each algorithm-specific field, in the order the algorithms first read it.
    for f in dict.fromkeys(f for _, _, fs in _TRAINERS.values() for f in fs):
        if f in given and f not in reads:
            raise UsageError("%s is not applicable to --algo %s" % (args.flags[f], args.algo))
    cfg = TrainConfig(algorithm=args.algo, **given)
    cfg.validate()
    template_text = read_text(args.templates)
    train_corpus = read_conll(args.train, labeled=True)
    heldout = read_conll(args.heldout, labeled=True) if args.heldout else None
    model, curve = train(train_corpus, heldout, cfg, template_text)
    if args.model_out:
        save_model(model, args.model_out)
    if args.curves:
        curve.write_csv(args.curves)
    last = curve.points[-1]
    held = "-" if last.heldout_metric is None else "%.4f" % last.heldout_metric
    print(
        "train ok: algo=%s epochs=%d features=%d objective=%.4f heldout=%s"
        % (args.algo, cfg.epochs, model.index.n_features, last.objective, held)
    )
    return 0


def _read_for_model(path, model):
    """Read a decode input as is, with the model's observation columns and perhaps a
    trailing gold column, which the compile does not read and the output writes back."""
    corpus = read_conll(path, labeled=False)
    if corpus.n_columns - model.n_columns in (0, 1):
        return corpus
    raise UsageError("input has %d columns but the model expects %d observation columns"
                     % (corpus.n_columns, model.n_columns))


def _write_nbest(corpus, compiled, model, n, path):
    found = searched(compiled, weight_views(model.weights, model.index), astar_nbest, n)
    tags, out = model.tagset.tags, []
    try:  # O(K): the candidates are scanned only when some tag would not read back
        check_writable(tags, 0)
    except ValueError:  # name the first such tag written, and its sequence
        for si, nb in enumerate(found):
            check_writable((tags[k] for cand in nb.paths for k in cand), si)
    for si, (seq, nb) in enumerate(zip(corpus.sequences, found)):
        # Each token's columns, built once per sequence rather than per candidate.
        prefixes = ["".join(col + "\t" for col in token) for token in seq.tokens]
        for rank, (cand, score, prob) in enumerate(topn_distribution(nb).entries, start=1):
            out.append("# seq=%d rank=%d score=%r prob=%r\n" % (si, rank, score, prob))
            out.extend(p + tags[k] + "\n" for p, k in zip(prefixes, cand))
            out.append("\n")
    write_text(path, "".join(out))


def cmd_decode(args) -> int:
    if args.nbest is not None and args.nbest < 1:
        raise UsageError("--nbest must be >= 1")
    model = load_model(args.model)
    corpus = _read_for_model(args.input, model)
    compiled = compile_corpus(model, corpus.sequences)
    if args.nbest is not None:
        _write_nbest(corpus, compiled, model, args.nbest, args.output)
        print(
            "decode ok: %d sequences, %d-best with probabilities -> %s"
            % (len(corpus), args.nbest, args.output)
        )
        return 0
    write_conll(corpus, args.output, viterbi_tags(model, compiled, model.weights))
    print("decode ok: %d sequences -> %s" % (len(corpus), args.output))
    return 0


def cmd_eval(args) -> int:
    gold = read_conll(args.gold, labeled=True)
    pred = read_conll(args.pred, labeled=True)
    predictions = [seq.gold for seq in pred.sequences]
    try:
        report = SCORERS[args.metric](gold, predictions)
    except ChunkTagError as e:  # name the file that holds the tag
        raise UsageError("%s: %s" % (args.gold if e.which == "gold" else args.pred, e)) from None
    if args.per_tag:
        write_text(args.per_tag, "\n".join(report.per_tag_csv_lines()) + "\n")
    print(report.summary())
    return 0


def _mean(values):
    """sum(values) / len(values) of finite values >= 0 where that sum is finite; else the
    largest value times the fsum of each value over it, / len, which cannot overflow."""
    total = sum(values)
    if math.isfinite(total):
        return total / len(values)
    top = max(values)
    return top * (math.fsum(v / top for v in values) / len(values))


def cmd_diagnose(args) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise UsageError("--n-list must be comma-separated integers") from None
    if not n_list or min(n_list) < 1:
        raise UsageError("--n-list values must be >= 1")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    model = load_model(args.model)
    corpus = read_conll(args.data, labeled=True)
    probes = corpus.sequences[: args.samples]
    all_reports = delta_diagnostics(model, probes, n_list)
    rows = [r for reports in all_reports for r in reports]
    if len(all_reports) > 1:  # averaged block appended, one row per n
        for column in zip(*all_reports):  # one n's reports, one per probe
            block = [(r.l2_delta, r.linf_delta, r.tail_mass) for r in column]
            rows.append(DeltaReport(column[0].n, *map(_mean, zip(*block))))
    write_text(args.out, "\n".join(delta_csv_lines(rows)) + "\n")
    print(
        "diagnose ok: %d samples, n in {%s} -> %s"
        % (len(probes), ",".join(str(n) for n in n_list), args.out)
    )
    return 0


def cmd_generate(args) -> int:
    corpus = generate_synthetic_hmm(
        K=args.tags,
        V=args.vocab,
        T_mean=args.mean_length,
        count=args.count,
        seed=args.seed,
        separability=args.separability,
    )
    write_conll(corpus, args.out)
    print("generate ok: %s -> %s" % (corpus.note, args.out))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The explicit finite checks turn overflow into exit 3, so NumPy's warnings
        # would only repeat it on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except NonFiniteError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (FormatError, ModelFileError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:  # UsageError, ConfigError, TemplateError and the rest
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

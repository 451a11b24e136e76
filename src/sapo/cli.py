"""Command-line interface: train / decode / eval / nbest / diagnose / generate.

Every flag is validated before any file I/O.  Exit codes: 0 success,
1 validation failure, 2 I/O failure, 3 numeric failure (non-finite
weights).  Each command prints a single human-readable summary line.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import (
    Corpus,
    FormatError,
    ModelFileError,
    generate_synthetic_hmm,
    load_model,
    read_conll,
    save_model,
    write_conll,
)
from .evaluation import chunk_f1, token_accuracy
from .features import Sequence, TemplateError, compile_sequence
from .inference import DeltaReport, delta_csv_lines, delta_diagnostic, topn_distribution
from .lattice import astar_nbest, build_lattice, viterbi_tags
from .training import ALGORITHMS, ConfigError, NonFiniteError, TrainConfig, train


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_NBEST = ("sapo", "mira-nbest", "mira-nbest-avg")
_SGD = ("sapo", "crf-sgd")
# Train flags only meaningful for some algorithms (explicit use elsewhere is
# an error), keyed by the TrainConfig field they set: (flag, algorithms).
_FLAG_ALGOS = {
    "n": ("--n", _NBEST),
    "search": ("--search", _NBEST),
    "beam_width": ("--beam", _NBEST),
    "learning_rate": ("--lr", _SGD),
    "l2": ("--l2", _SGD),
    "lr_decay": ("--lr-decay", _SGD),
    "mira_clip": ("--mira-c", ("mira", "mira-avg", "mira-nbest", "mira-nbest-avg")),
}


def _build_parser():
    parser = _Parser(prog="sapo", description="Linear-chain sequence labeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", help="train a model", formatter_class=fmt)
    p.add_argument("--algo", required=True, choices=ALGORITHMS, help="training algorithm")
    p.add_argument("--train", required=True, metavar="PATH", help="labeled training corpus")
    p.add_argument("--templates", required=True, metavar="PATH", help="feature template file")
    p.add_argument("--heldout", metavar="PATH", default=None, help="labeled held-out corpus")
    p.add_argument("--n", type=int, default=None,
                   help="top-n candidate count (default: %d)" % TrainConfig.n)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None,
                   help="learning rate (default: %r)" % TrainConfig.learning_rate)
    p.add_argument("--l2", type=float, default=None,
                   help="L2 strength (default: %r)" % TrainConfig.l2)
    p.add_argument("--epochs", type=int, default=20, help="training epochs")
    p.add_argument("--seed", type=int, default=1, help="random seed")
    p.add_argument("--search", choices=("astar", "beam"), default=None,
                   help="top-n search mode (default: %s)" % TrainConfig.search)
    p.add_argument("--beam", dest="beam_width", type=int, default=None,
                   help="beam width (default: %d)" % TrainConfig.beam_width)
    p.add_argument("--lr-decay", dest="lr_decay", type=float, default=None,
                   help="per-epoch learning-rate multiplier (default: fixed rate)")
    p.add_argument("--mira-c", dest="mira_clip", type=float, default=None,
                   help="MIRA step-size clip (default: %r)" % TrainConfig.mira_clip)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=1,
                   help="epochs between held-out evaluations")
    p.add_argument("--metric", choices=("accuracy", "chunk-f1"), default="accuracy",
                   help="held-out metric")
    p.add_argument("--curves", metavar="PATH", default=None, help="per-epoch curve CSV output")
    p.add_argument("--model-out", dest="model_out", metavar="PATH", default=None,
                   help="model file output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="tag a corpus with a trained model", formatter_class=fmt)
    p.add_argument("--model", required=True, metavar="PATH", help="model file")
    p.add_argument("--input", required=True, metavar="PATH", help="input corpus")
    p.add_argument("--output", required=True, metavar="PATH", help="tagged output")
    p.add_argument("--nbest", type=int, default=None,
                   help="emit this many candidates per sequence with probabilities")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("nbest", help="emit n-best candidate lists", formatter_class=fmt)
    p.add_argument("--model", required=True, metavar="PATH", help="model file")
    p.add_argument("--input", required=True, metavar="PATH", help="input corpus")
    p.add_argument("--output", required=True, metavar="PATH", help="candidate output")
    p.add_argument("--n", type=int, default=5, help="candidates per sequence")
    p.set_defaults(func=cmd_nbest)

    p = sub.add_parser("eval", help="score predictions against gold tags", formatter_class=fmt)
    p.add_argument("--gold", required=True, metavar="PATH", help="gold corpus")
    p.add_argument("--pred", required=True, metavar="PATH",
                   help="predictions (last column) corpus")
    p.add_argument("--metric", choices=("accuracy", "chunk-f1"), default="accuracy",
                   help="evaluation metric")
    p.add_argument("--per-tag", dest="per_tag", metavar="PATH", default=None,
                   help="optional per-tag CSV output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="gradient-approximation deviation report",
                       formatter_class=fmt)
    p.add_argument("--model", required=True, metavar="PATH", help="model file")
    p.add_argument("--data", required=True, metavar="PATH", help="labeled corpus")
    p.add_argument("--n-list", dest="n_list", default="1,2,5,10,50",
                   help="comma-separated candidate counts")
    p.add_argument("--l2", type=float, default=1.0, help="L2 strength")
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
    given = {f: getattr(args, f) for f in _FLAG_ALGOS if getattr(args, f) is not None}
    for f in given:
        flag, algos = _FLAG_ALGOS[f]
        if args.algo not in algos:
            raise UsageError("%s is not applicable to --algo %s" % (flag, args.algo))
    if "lr_decay" in given:
        given["lr_schedule"] = "exp"
    cfg = TrainConfig(
        algorithm=args.algo,
        epochs=args.epochs,
        seed=args.seed,
        eval_every=args.eval_every,
        metric=args.metric,
        **given,
    )
    cfg.validate()
    with open(args.templates, "r", encoding="utf-8") as f:
        template_text = f.read()
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
    """Read a decode input, tolerating an extra trailing gold column."""
    corpus = read_conll(path, labeled=False)
    if corpus.n_columns == model.n_columns:
        return corpus
    if corpus.n_columns == model.n_columns + 1:
        seqs = [
            Sequence(tokens=[tok[:-1] for tok in s.tokens], gold=[tok[-1] for tok in s.tokens])
            for s in corpus.sequences
        ]
        return Corpus(sequences=seqs, n_columns=model.n_columns, note=corpus.note)
    raise UsageError(
        "input has %d columns but the model expects %d observation columns"
        % (corpus.n_columns, model.n_columns)
    )


def _write_nbest(corpus, model, n, path):
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for si, seq in enumerate(corpus.sequences):
            nb = topn_distribution(astar_nbest(build_lattice(model, seq), n))
            for rank, (cand, score, prob) in enumerate(nb.entries, start=1):
                out.write("# seq=%d rank=%d score=%r prob=%r\n" % (si, rank, score, prob))
                for t, token in enumerate(seq.tokens):
                    cols = list(token)
                    if seq.gold is not None:
                        cols.append(seq.gold[t])
                    cols.append(model.tagset.tag(cand[t]))
                    out.write("\t".join(cols) + "\n")
                out.write("\n")


def cmd_decode(args) -> int:
    if args.nbest is not None and args.nbest < 1:
        raise UsageError("--nbest must be >= 1")
    model = load_model(args.model)
    corpus = _read_for_model(args.input, model)
    if args.nbest is not None:
        _write_nbest(corpus, model, args.nbest, args.output)
        print(
            "decode ok: %d sequences, %d-best with probabilities -> %s"
            % (len(corpus), args.nbest, args.output)
        )
        return 0
    compiled = [compile_sequence(model, seq) for seq in corpus.sequences]
    write_conll(corpus, args.output, viterbi_tags(model, compiled, model.weights))
    print("decode ok: %d sequences -> %s" % (len(corpus), args.output))
    return 0


def cmd_nbest(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    model = load_model(args.model)
    corpus = _read_for_model(args.input, model)
    _write_nbest(corpus, model, args.n, args.output)
    print("nbest ok: %d sequences, n=%d -> %s" % (len(corpus), args.n, args.output))
    return 0


def cmd_eval(args) -> int:
    gold = read_conll(args.gold, labeled=True)
    pred = read_conll(args.pred, labeled=True)
    predictions = [seq.gold for seq in pred.sequences]
    if args.metric == "chunk-f1":
        report = chunk_f1(gold, predictions)
    else:
        report = token_accuracy(gold, predictions)
    if args.per_tag:
        with open(args.per_tag, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(report.per_tag_csv_lines()) + "\n")
    print(report.summary())
    return 0


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
    all_reports = [
        delta_diagnostic(model, z, n_list, args.l2, len(corpus.sequences)) for z in probes
    ]
    rows = [r for reports in all_reports for r in reports]
    if len(all_reports) > 1:
        # averaged block appended, one row per n
        for i, n in enumerate(sorted(set(n_list))):
            block = [reports[i] for reports in all_reports]
            rows.append(
                DeltaReport(
                    n=n,
                    l2_delta=sum(r.l2_delta for r in block) / len(block),
                    linf_delta=sum(r.linf_delta for r in block) / len(block),
                    tail_mass=sum(r.tail_mass for r in block) / len(block),
                )
            )
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(delta_csv_lines(rows)) + "\n")
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
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except NonFiniteError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (FormatError, ModelFileError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ConfigError, TemplateError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

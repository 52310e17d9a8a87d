"""Command-line entry points for reproducible experiment runs.

Six subcommands chain into a full pipeline::

    generate -> train -> decode -> eval -> stats
                  \\-> context (shared-normalization training inputs)

Every command draws all randomness from one explicit seed, validates its
inputs before writing anything, and emits deterministic bytes, so a rerun
with the same inputs reproduces every output file exactly.  A JSON config
file can supply any value option; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import data as data_mod
from . import decoding, evaluation, model, stats
from .errors import MALFORMED_RECORD_ERRORS, ConfigError, InvalidInputError, SpanObjError, malformed
from .numerics import MASK_VALID
from .objectives import OBJ_COMPOUND_SHARED, OBJECTIVE_KINDS
from .similarity import KIND_DOT

_CONFIGURABLE = {
    "generate": {
        "out", "seed", "n_train", "n_dev", "subjects", "attributes", "value_pool",
        "ambiguous_fraction", "distractors", "mode", "passages_per_topic",
    },
    "train": {
        "data", "out", "objective", "seeds", "epochs", "batch_size", "learning_rate",
        "weight_decay", "policy", "dim", "similarity", "context_size", "contexts", "beam",
    },
    "decode": {"checkpoint", "data", "out", "filter", "zeta", "surface_k", "top_k", "beam"},
    "eval": {"predictions", "gold", "out", "hist_out", "top_k"},
    "context": {"data", "embeddings", "out", "context_size", "seed"},
    "stats": {"metrics", "comparisons", "out"},
}


# Options each command needs, from a flag or the config file.
_REQUIRED = {
    "generate": ("out",),
    "train": ("data", "out"),
    "decode": ("checkpoint", "data", "out"),
    "eval": ("predictions", "gold", "out"),
    "context": ("data", "embeddings", "out"),
    "stats": ("metrics", "comparisons"),
}


def _check_required(args: argparse.Namespace, command: str) -> None:
    for key in _REQUIRED[command]:
        value = getattr(args, key)
        if value is None:
            raise ConfigError(f"{command}: option --{key} is required (a flag or a config key)")
        values = value if key == "metrics" and isinstance(value, list) else [value]
        if not all(isinstance(v, str) for v in values):
            raise ConfigError(f"option {key!r} takes a path or string, got {value!r}")


def _apply_config(args: argparse.Namespace, command: str) -> argparse.Namespace:
    """Fill unset options from the JSON config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad config file {args.config}: {err}") from err
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = _CONFIGURABLE[command]
    for key, value in overrides.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for {command!r} (allowed: {sorted(allowed)})"
            )
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _resolve(args, defaults: dict) -> None:
    """Fill unset options with defaults; convert numeric ones to the default's type."""
    for key, default in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = default
        elif isinstance(default, (int, float)):
            try:
                value = type(default)(value)
            except (TypeError, ValueError) as err:
                raise ConfigError(
                    f"option {key!r} takes {type(default).__name__} values, got {value!r}"
                ) from err
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    _resolve(
        args,
        {
            "seed": 0,
            "n_train": 2000,
            "n_dev": 500,
            "subjects": 30,
            "attributes": 6,
            "value_pool": 40,
            "ambiguous_fraction": 0.3,
            "distractors": 1,
            "mode": data_mod.MODE_TWIN,
            "passages_per_topic": 4,
        },
    )
    config = data_mod.GeneratorConfig(
        n_train=args.n_train,
        n_dev=args.n_dev,
        subjects=args.subjects,
        attributes=args.attributes,
        value_pool=args.value_pool,
        ambiguous_fraction=args.ambiguous_fraction,
        distractors=args.distractors,
        mode=args.mode,
        passages_per_topic=args.passages_per_topic,
    )
    dataset = data_mod.generate_synthetic(config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    data_mod.save_dataset(dataset.train, os.path.join(args.out, "train.jsonl"))
    data_mod.save_dataset(dataset.dev, os.path.join(args.out, "dev.jsonl"))
    data_mod.save_embeddings(dataset.table, os.path.join(args.out, "embeddings.txt"))
    print(
        f"wrote {len(dataset.train)} train / {len(dataset.dev)} dev examples "
        f"and {len(dataset.table.ids)} passage embeddings to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# train


def _parse_seeds(raw) -> list:
    if isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        parts = [p for p in str(raw).replace(",", " ").split() if p]
    if not parts:
        raise ConfigError("no training seeds given")
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"option 'seeds' takes integers, got {raw!r}") from err


def cmd_train(args) -> int:
    _resolve(
        args,
        {
            "objective": "compound",
            "seeds": "0",
            "epochs": 10,
            "batch_size": 32,
            "learning_rate": 1e-3,
            "weight_decay": 0.01,
            "policy": MASK_VALID,
            "dim": 32,
            "similarity": KIND_DOT,
            "context_size": 2,
            "contexts": None,
            "beam": decoding.DEFAULT_BEAM_WIDTH,
        },
    )
    seeds = _parse_seeds(args.seeds)
    if args.objective not in OBJECTIVE_KINDS:
        raise ConfigError(f"unknown objective {args.objective!r}")
    shared = args.objective == OBJ_COMPOUND_SHARED
    if shared and not args.contexts:
        raise ConfigError("shared-normalization training needs --contexts (see the context command)")

    train_examples = data_mod.load_dataset(os.path.join(args.data, "train.jsonl"))
    dev_path = os.path.join(args.data, "dev.jsonl")
    dev_examples = data_mod.load_dataset(dev_path) if os.path.exists(dev_path) else []
    vocab = data_mod.Vocabulary.from_examples(train_examples + dev_examples)
    encoded_train = data_mod.encode_examples(train_examples, vocab)
    encoded_dev = data_mod.encode_examples(dev_examples, vocab) if args.log_dev else None
    contexts = None
    if shared:
        contexts = data_mod.encode_contexts(data_mod.load_contexts(args.contexts), vocab)

    os.makedirs(args.out, exist_ok=True)
    for seed in seeds:
        config = model.TrainConfig(
            objective=args.objective,
            learning_rate=args.learning_rate,
            weight_decay=args.weight_decay,
            batch_size=args.batch_size,
            epochs=args.epochs,
            seed=seed,
            policy=args.policy,
            context_size=args.context_size,
            dim=args.dim,
            similarity=args.similarity,
        )
        ckpt_path = os.path.join(args.out, f"{args.objective}-seed{seed}.ckpt")
        log_path = os.path.join(args.out, f"{args.objective}-seed{seed}-log.json")

        params = optimizer = None
        start_epoch = 0
        if args.resume and os.path.exists(ckpt_path):
            ckpt = model.load_checkpoint(ckpt_path)
            if ckpt.objective != args.objective:
                raise InvalidInputError(
                    f"{ckpt_path} was trained with objective {ckpt.objective!r}"
                )
            if ckpt.epoch >= config.epochs:
                print(f"seed {seed}: checkpoint already at epoch {ckpt.epoch}, skipping")
                continue
            params, optimizer, start_epoch = ckpt.params, ckpt.optimizer, ckpt.epoch

        kwargs = dict(
            params=params,
            optimizer=optimizer,
            start_epoch=start_epoch,
            dev_set=encoded_dev,
            vocab_size=len(vocab),
            beam_width=args.beam,
        )
        if shared:
            result = model.train_dss(contexts, config, **kwargs)
        else:
            result = model.train(encoded_train, config, **kwargs)

        model.save_checkpoint(
            ckpt_path,
            result.params,
            objective=args.objective,
            seed=seed,
            epoch=result.epochs_done,
            vocab=vocab.tokens,
            optimizer=result.optimizer,
            extra={"policy": args.policy},
        )
        with open(log_path, "w", encoding="utf-8") as fh:
            json.dump(result.log, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        last = result.log[-1] if result.log else {}
        print(f"seed {seed}: trained {args.objective} to epoch {result.epochs_done} "
              f"(loss {last.get('loss', float('nan')):.4f}) -> {ckpt_path}")
    return 0


# ---------------------------------------------------------------------------
# decode


def cmd_decode(args) -> int:
    _resolve(
        args,
        {
            "filter": "lf+sf",
            "zeta": decoding.DEFAULT_MAX_SPAN_LENGTH,
            "surface_k": decoding.DEFAULT_SURFACE_TOP_K,
            "top_k": 20,
            "beam": decoding.DEFAULT_BEAM_WIDTH,
        },
    )
    ckpt = model.load_checkpoint(args.checkpoint)
    if ckpt.vocab is None:
        raise InvalidInputError(f"{args.checkpoint} carries no vocabulary; cannot decode")
    vocab = data_mod.Vocabulary(ckpt.vocab)
    policy = ckpt.extra.get("policy", MASK_VALID)
    examples = data_mod.load_dataset(args.data)
    encoded = data_mod.encode_examples(examples, vocab)

    # One encoder for every record: json.dumps with options builds one per call.
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = []
    dists = model.predict_distributions(ckpt.params, encoded, ckpt.objective, policy, args.beam)
    for enc, dist in zip(encoded, dists):
        passage = enc.example.passage
        dist = decoding.apply_filters(dist, passage, args.filter, args.zeta, args.surface_k)
        for rank, pred in enumerate(decoding.top_k(dist, args.top_k, passage), 1):
            lines.append(encode({
                "example_id": enc.id,
                "rank": rank,
                "start": pred.span.start,
                "end": pred.span.end,
                "text": pred.text,
                "probability": pred.probability,
            }))
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    print(f"wrote {len(lines)} predictions for {len(encoded)} examples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    _resolve(args, {"hist_out": None, "top_k": 20})
    golds = {}
    for ex in data_mod.load_dataset(args.gold):
        golds[ex.id] = ex.answers

    ranked: dict = {}
    with open(args.predictions, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                rank, text = record["rank"], record["text"]
                if type(rank) is not int or not isinstance(text, str):
                    raise TypeError(f"rank {rank!r} must be an integer, text {text!r} a string")
                ranked.setdefault(record["example_id"], []).append((rank, text))
            except MALFORMED_RECORD_ERRORS as err:
                raise malformed(args.predictions, line_no, "prediction", err) from err
    if not ranked:
        raise InvalidInputError(f"{args.predictions}: no predictions")
    for texts in ranked.values():
        texts.sort()

    top_one = {eid: texts[0][1] for eid, texts in ranked.items()}
    report = evaluation.score_dataset(top_one, golds)

    ordered_ids = sorted(ranked)
    lengths = evaluation.avg_topk_span_length(
        [[t for _, t in ranked[eid]] for eid in ordered_ids], k=args.top_k
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if args.hist_out:
        with open(args.hist_out, "w", encoding="utf-8") as fh:
            fh.write(lengths.histogram_rows())
            fh.write("\n")
    print(f"EM {report.em:.2f} F1 {report.f1:.2f} over {report.n} examples -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# context


def cmd_context(args) -> int:
    _resolve(args, {"context_size": 2, "seed": 0})
    if not os.path.exists(args.embeddings):
        raise InvalidInputError(f"missing embedding table {args.embeddings}")
    table = data_mod.load_embeddings(args.embeddings)
    examples = data_mod.load_dataset(args.data)
    passages_by_id = {}
    for ex in examples:
        passages_by_id.setdefault(ex.passage.id, ex.passage)
    missing = [ex.id for ex in examples if ex.passage.id not in table.row_of]
    if missing:
        raise InvalidInputError(f"examples reference passages missing from the table: {missing[:5]}")

    contexts = []
    for i, ex in enumerate(examples):
        # The gold passage's embedding stands in for a question encoder.
        q_vec = table.matrix[table.row_of[ex.passage.id]]
        ranking = [
            (pid, score) for pid, score in data_mod.score_passages(q_vec, table)
            if pid in passages_by_id
        ]
        rng = args.seed * 1000003 + i
        contexts.append(
            data_mod.build_context(
                ranking, ex.answers[0], passages_by_id, args.context_size,
                rng, ex.id, ex.question,
            )
        )
    data_mod.save_contexts(contexts, args.out)
    short = sum(1 for c in contexts if c.short)
    print(f"wrote {len(contexts)} contexts ({short} short) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    _resolve(args, {"out": None})
    metric_files = args.metrics if isinstance(args.metrics, list) else [args.metrics]
    if len(metric_files) < 2:
        raise ConfigError("need at least two metric files to compare")
    samples = []
    seed_sets = {}
    for path in metric_files:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                record = json.load(fh)
                samples.append(stats.RunSample(record["label"], record["values"]))
                seed_sets[record["label"]] = list(record["seeds"])
            except SpanObjError:
                raise
            except MALFORMED_RECORD_ERRORS as err:
                # A metric file is one JSON object; a parse error knows its line.
                raise malformed(path, getattr(err, "lineno", 1), "metric file", err) from err
    seed_lists = list(seed_sets.values())
    if any(s != seed_lists[0] for s in seed_lists[1:]):
        raise InvalidInputError(f"metric files carry different seed sets: {seed_sets}")

    comparisons = []
    for clause in str(args.comparisons).split(","):
        clause = clause.strip()
        if not clause:
            continue
        if ">" not in clause:
            raise ConfigError(f"comparison {clause!r} must look like better>baseline")
        left, right = (part.strip() for part in clause.split(">", 1))
        comparisons.append((left, right))

    report = stats.significance_report(samples, comparisons)
    text = report.format()
    print(text if text else "(no comparisons)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`ConfigError` instead of exiting 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spanobj",
        description="Span-extraction objectives: synthetic experiments end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON file of default option values (flags win)")

    p = sub.add_parser("generate", help="write a synthetic train/dev corpus")
    add_config(p)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-dev", dest="n_dev", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--attributes", type=int)
    p.add_argument("--value-pool", dest="value_pool", type=int)
    p.add_argument("--ambiguous-fraction", dest="ambiguous_fraction", type=float)
    p.add_argument("--distractors", type=int)
    p.add_argument("--mode", choices=data_mod.GENERATOR_MODES)
    p.add_argument("--passages-per-topic", dest="passages_per_topic", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one checkpoint per seed")
    add_config(p)
    p.add_argument("--data", help="directory holding train.jsonl / dev.jsonl")
    p.add_argument("--out")
    p.add_argument("--objective", choices=OBJECTIVE_KINDS)
    p.add_argument("--seeds", help="comma-separated training seeds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--policy")
    p.add_argument("--dim", type=int)
    p.add_argument("--similarity")
    p.add_argument("--context-size", dest="context_size", type=int)
    p.add_argument("--contexts", help="context file for shared-normalization training")
    p.add_argument("--beam", type=int)
    p.add_argument("--log-dev", dest="log_dev", action="store_true",
                   help="evaluate the dev set after every epoch")
    p.add_argument("--resume", action="store_true", help="continue from an existing checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="write ranked predictions for a dataset")
    add_config(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--filter", choices=["none", "lf", "lf+sf"])
    p.add_argument("--zeta", type=int)
    p.add_argument("--surface-k", dest="surface_k", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--beam", type=int)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score predictions against gold answers")
    add_config(p)
    p.add_argument("--predictions")
    p.add_argument("--gold")
    p.add_argument("--out")
    p.add_argument("--hist-out", dest="hist_out")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("context", help="build retrieval contexts with distant supervision")
    add_config(p)
    p.add_argument("--data")
    p.add_argument("--embeddings")
    p.add_argument("--out")
    p.add_argument("--context-size", dest="context_size", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_context)

    p = sub.add_parser("stats", help="significance report over per-seed metric samples")
    add_config(p)
    p.add_argument("--metrics", nargs="+", help="per-run sample files")
    p.add_argument("--comparisons", help="e.g. 'compound>independent'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args = _apply_config(args, args.command)
        _check_required(args, args.command)
        return args.func(args)
    except SpanObjError as err:
        sys.stderr.write(
            json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n"
        )
        return 1
    except OSError as err:
        sys.stderr.write(json.dumps({"error": "OSError", "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points for reproducible experiment runs.

Six subcommands chain into a full pipeline::

    generate -> train -> decode -> eval -> stats
                  \\-> context (shared-normalization training inputs)

Every command draws all randomness from one explicit seed, validates its
inputs before writing anything, and emits deterministic bytes, so a rerun
with the same inputs reproduces every output file exactly.  A JSON config
file can supply any value option; explicit flags win over the file.

Each option is declared once, in ``_OPTIONS``.  Defaults come from the
library: ``generate`` and ``train`` options are the fields of ``GeneratorConfig``
and ``TrainConfig``, and ``decode``'s are the ``decoding.DEFAULT_*`` constants.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import NamedTuple

from . import data as data_mod
from . import decoding, evaluation, model, stats
from .errors import MALFORMED_RECORD_ERRORS, ConfigError, InvalidInputError, SpanObjError, malformed
from .numerics import MASK_VALID
from .objectives import OBJ_COMPOUND_SHARED, OBJECTIVE_KINDS


def _config_fields(args: argparse.Namespace, config_cls) -> dict:
    """The options that are fields of ``config_cls``, ready to splat into it."""
    names = (f.name for f in dataclasses.fields(config_cls))
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_generate(args) -> int:
    """write a synthetic train/dev corpus"""
    config = data_mod.GeneratorConfig(**_config_fields(args, data_mod.GeneratorConfig))
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


# Every TrainConfig field but these is recorded in a CLI checkpoint and must
# match on resume; the seed names the checkpoint, and resuming raises epochs.
_PER_RUN_FIELDS = ("seed", "epochs")


def _log_epochs(record) -> list:
    if not (isinstance(record, list) and all(isinstance(entry, dict) for entry in record)):
        raise TypeError("a training log line is a list of epoch objects")
    return record


def _resume(stem: str, config, vocab) -> tuple:
    """The checkpoint and epoch log at ``stem``, refused unless trained as this run trains."""
    path, log_path = stem + ".ckpt", stem + "-log.json"
    ckpt = model.load_checkpoint(path)
    if ckpt.optimizer is None:
        raise InvalidInputError(f"{path} holds no optimizer state, so training cannot resume exactly")
    for spec in dataclasses.fields(config):
        saved, wanted = ckpt.extra.get(spec.name), getattr(config, spec.name)
        if spec.name not in _PER_RUN_FIELDS and saved != wanted:
            raise InvalidInputError(f"{path} was trained with {spec.name} {saved!r}, not {wanted!r}")
    if ckpt.vocab != vocab.tokens:
        raise InvalidInputError(f"{path} was trained with another vocabulary than this data's")
    if not os.path.exists(log_path):
        raise InvalidInputError(f"{log_path} is missing, and a resumed run carries its log forward")
    log = sum(data_mod.read_records(log_path, "training log", _log_epochs), [])
    if [entry.get("epoch") for entry in log] != list(range(ckpt.epoch)):
        raise InvalidInputError(f"{log_path} does not log epochs 0 to {ckpt.epoch - 1} of {path}")
    return ckpt, log


def cmd_train(args) -> int:
    """train one checkpoint per seed"""
    try:
        seeds = [int(s) for s in args.seeds.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"option 'seeds' takes integers, got {args.seeds!r}") from err
    if not seeds:
        raise ConfigError("no training seeds given")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"option 'seeds' names a seed twice: {args.seeds!r}")
    # Every config is checked before anything is read or written.
    configs = [model.TrainConfig(seed=s, **_config_fields(args, model.TrainConfig)) for s in seeds]
    shared = args.objective == OBJ_COMPOUND_SHARED
    if shared != bool(args.contexts):
        raise ConfigError(f"{OBJ_COMPOUND_SHARED!r} training needs --contexts (see the context "
                          "command), and no other objective reads them")
    dev_path = os.path.join(args.data, "dev.jsonl")
    if args.log_dev and not os.path.exists(dev_path):
        raise ConfigError(f"--log-dev needs a dev set, and {dev_path} does not exist")

    train_examples = data_mod.load_dataset(os.path.join(args.data, "train.jsonl"))
    dev_examples = data_mod.load_dataset(dev_path) if os.path.exists(dev_path) else []
    vocab = data_mod.Vocabulary.from_examples(train_examples + dev_examples)
    encoded_dev = data_mod.encode_examples(dev_examples, vocab) if args.log_dev else None
    if shared:
        items = data_mod.encode_contexts(data_mod.load_contexts(args.contexts), vocab)
    else:
        items = data_mod.encode_examples(train_examples, vocab)

    stems = {seed: os.path.join(args.out, f"{args.objective}-seed{seed}") for seed in seeds}
    # Every checkpoint to resume is checked before any seed trains.
    resumed = {
        config.seed: _resume(stems[config.seed], config, vocab)
        for config in configs if args.resume and os.path.exists(stems[config.seed] + ".ckpt")
    }

    os.makedirs(args.out, exist_ok=True)
    for config in configs:
        seed = config.seed
        ckpt_path = stems[seed] + ".ckpt"

        params = optimizer = None
        start_epoch, log = 0, []
        if seed in resumed:
            ckpt, log = resumed.pop(seed)
            if ckpt.epoch >= config.epochs:
                print(f"seed {seed}: checkpoint already at epoch {ckpt.epoch}, skipping")
                continue
            params, optimizer, start_epoch = ckpt.params, ckpt.optimizer, ckpt.epoch

        result = model.train(
            items, config, params=params, optimizer=optimizer, start_epoch=start_epoch,
            dev_set=encoded_dev, vocab_size=len(vocab), beam_width=args.beam,
        )
        log += result.log
        model.save_checkpoint(
            ckpt_path,
            result.params,
            objective=args.objective,
            seed=seed,
            epoch=result.epochs_done,
            vocab=vocab.tokens,
            optimizer=result.optimizer,
            extra={name: value for name, value in dataclasses.asdict(config).items()
                   if name not in _PER_RUN_FIELDS},
        )
        data_mod.write_records(stems[seed] + "-log.json", [log])
        print(f"seed {seed}: trained {args.objective} to epoch {result.epochs_done} "
              f"(loss {log[-1]['loss']:.4f}) -> {ckpt_path}")
    return 0


def cmd_decode(args) -> int:
    """write ranked predictions for a dataset"""
    ckpt = model.load_checkpoint(args.checkpoint)
    if ckpt.vocab is None:
        raise InvalidInputError(f"{args.checkpoint} carries no vocabulary; cannot decode")
    vocab = data_mod.Vocabulary(ckpt.vocab)
    policy = ckpt.extra.get("policy", MASK_VALID)
    examples = data_mod.load_dataset(args.data)
    encoded = data_mod.encode_examples(examples, vocab)

    # Every line is built before the file is opened, so a failed decode writes nothing.
    lines, count, short = [], 0, 0
    dists = model.predict_distributions(ckpt.params, encoded, ckpt.objective, policy, args.beam)
    for enc, dist in zip(encoded, dists):
        passage = enc.example.passage
        dist = decoding.apply_filters(dist, passage, args.filter, args.zeta, args.surface_k)
        predictions = decoding.top_k(dist, args.top_k, passage)
        lines.append(data_mod.prediction_lines(enc.id, predictions))
        count += len(predictions)
        short += len(predictions) < args.top_k
    with data_mod.replacing(args.out) as fh:
        fh.write("".join(lines))
    print(f"wrote {count} predictions for {len(encoded)} examples to {args.out}; "
          f"{short} short of top-{args.top_k}")
    return 0


def cmd_eval(args) -> int:
    """score predictions against gold answers"""
    golds = {}
    for ex in data_mod.load_dataset(args.gold):
        golds[ex.id] = ex.answers

    ranked: dict = {}

    def add_prediction(record) -> None:
        rank, text = record["rank"], record["text"]
        if type(rank) is not int or not isinstance(text, str):
            raise TypeError(f"rank {rank!r} must be an integer, text {text!r} a string")
        ranked.setdefault(record["example_id"], []).append((rank, text))

    data_mod.read_records(args.predictions, "prediction", add_prediction)
    for texts in ranked.values():
        texts.sort()

    top_one = {eid: texts[0][1] for eid, texts in ranked.items()}
    report = evaluation.score_dataset(top_one, golds)

    ordered_ids = sorted(ranked)
    lengths = evaluation.avg_topk_span_length(
        [[t for _, t in ranked[eid]] for eid in ordered_ids], k=args.top_k
    )
    with data_mod.replacing(args.out) as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if args.hist_out:
        with data_mod.replacing(args.hist_out) as fh:
            fh.write(lengths.histogram_rows())
            fh.write("\n")
    print(f"EM {report.em:.2f} F1 {report.f1:.2f} over {report.n} examples -> {args.out}")
    return 0


def cmd_context(args) -> int:
    """build retrieval contexts with distant supervision"""
    if args.seed < 0:  # checked here, where it is still the flag's value
        raise ConfigError(f"context seed must be >= 0, got {args.seed}")
    if not os.path.exists(args.embeddings):
        raise InvalidInputError(f"missing embedding table {args.embeddings}")
    table = data_mod.load_embeddings(args.embeddings)
    examples = data_mod.load_dataset(args.data)
    passages_by_id = {}
    for ex in examples:
        if passages_by_id.setdefault(ex.passage.id, ex.passage).text != ex.passage.text:
            raise InvalidInputError(f"{args.data}: passage {ex.passage.id!r} has two texts")
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


def cmd_stats(args) -> int:
    """significance report over per-seed metric samples"""
    if len(args.metrics) < 2:
        raise ConfigError("need at least two metric files to compare")
    samples = []
    seed_sets = {}
    for path in args.metrics:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                record = json.load(fh)
                samples.append(stats.RunSample(record["label"], record["values"]))
                seed_sets[record["label"]] = seeds = list(record["seeds"])
                if len(seeds) != len(samples[-1].values):
                    raise InvalidInputError(f"{path} holds {len(samples[-1].values)} values for {len(seeds)} seeds")
            except SpanObjError:
                raise
            except MALFORMED_RECORD_ERRORS as err:
                # A metric file is one JSON object; a parse error knows its line.
                raise malformed(path, getattr(err, "lineno", 1), "metric file", err) from err
    seed_lists = list(seed_sets.values())
    if any(s != seed_lists[0] for s in seed_lists[1:]):
        raise InvalidInputError(f"metric files carry different seed sets: {seed_sets}")

    comparisons = []
    for clause in args.comparisons.split(","):
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
        with data_mod.replacing(args.out) as fh:
            fh.write(text)
            fh.write("\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`ConfigError` instead of exiting 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


class _Option(NamedTuple):
    """One row of the option table; build rows with :func:`_option`."""

    commands: list
    name: str
    flag: str
    required: bool
    arguments: dict  # add_argument keywords


def _option(commands: str, name: str, default=None, required=False, **arguments) -> _Option:
    """An option of the space-separated ``commands``.  Its type is its
    default's, a path's when None; a bool default makes an on/off flag."""
    if isinstance(default, bool):
        arguments["action"] = "store_true"
    elif default is not None:
        arguments.update(type=type(default), default=default)
    # Keywords left at None would only slow add_argument, which every command runs.
    arguments = {key: value for key, value in arguments.items() if value is not None}
    flag = "--" + name.replace("_", "-")
    return _Option(commands.split(), name, flag, required, dict(arguments, dest=name))


def _fields(command: str, config_cls, skip: str, **choices) -> list:
    """One option per field of a library config class, defaulting as the class does."""
    return [
        _option(command, f.name, f.default, choices=choices.get(f.name))
        for f in dataclasses.fields(config_cls) if f.name != skip
    ]


# Every option, in --help order.  The parser, the config keys, the defaults
# and the required checks all come from this table.
_OPTIONS = [
    _option("decode", "checkpoint", required=True),
    _option("eval", "predictions", required=True),
    _option("eval", "gold", required=True),
    _option("train", "data", required=True, help="directory holding train.jsonl / dev.jsonl"),
    _option("decode context", "data", required=True),
    _option("context", "embeddings", required=True),
    _option("stats", "metrics", required=True, help="per-run sample files", nargs="+"),
    _option("stats", "comparisons", required=True, help="e.g. 'compound>independent'"),
    _option("generate train decode eval context", "out", required=True),
    _option("stats", "out"),
    _option("context", "context_size", 2),
    _option("generate context", "seed", 0),
    # The embedding noise has never been a CLI option.
    *_fields("generate", data_mod.GeneratorConfig, "embedding_noise", mode=data_mod.GENERATOR_MODES),
    *_fields("train", model.TrainConfig, "seed", objective=OBJECTIVE_KINDS),
    _option("train", "seeds", "0", help="comma-separated training seeds"),
    _option("train", "contexts", help="context file for shared-normalization training"),
    # The default runs every filter: length, then surface form.
    _option("decode", "filter", decoding.FILTER_PIPELINES[-1], choices=decoding.FILTER_PIPELINES),
    _option("decode", "zeta", decoding.DEFAULT_MAX_SPAN_LENGTH),
    _option("decode", "surface_k", decoding.DEFAULT_SURFACE_TOP_K),
    _option("eval", "hist_out"),
    _option("decode eval", "top_k", 20),
    _option("train decode", "beam", decoding.DEFAULT_BEAM_WIDTH),
    _option("train", "log_dev", False, help="evaluate the dev set after every epoch"),
    _option("train", "resume", False, help="continue from an existing checkpoint"),
]


_COMMANDS = {
    func.__name__.removeprefix("cmd_"): func
    for func in (cmd_generate, cmd_train, cmd_decode, cmd_eval, cmd_context, cmd_stats)
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``command``, of that one.

    Every subcommand is listed either way; only the options of the ones
    built are added, since adding them is most of the parser's cost.
    """
    parser = _Parser(
        prog="spanobj",
        description="Span-extraction objectives: synthetic experiments end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.set_defaults(func=func)
        if command in (None, name):
            p.add_argument("--config", help="JSON file of default option values (flags win)")
            for option in _OPTIONS:
                if name in option.commands:
                    p.add_argument(option.flag, **option.arguments)
    return parser


def _config_flags(parser: argparse.ArgumentParser, command: str, path: str) -> list:
    """The config file's values as flags, each parsed alone so that an error names its key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad config file {path}: {err}") from err
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    options = {o.name: o for o in _OPTIONS if command in o.commands and "action" not in o.arguments}
    flags = []
    for key, value in overrides.items():
        if key not in options:
            raise ConfigError(
                f"unknown config key {key!r} for {command!r} (allowed: {sorted(options)})"
            )
        if key == "seeds" and isinstance(value, list):
            value = ",".join(map(str, value))  # the flag's comma-separated form
        values = value if "nargs" in options[key].arguments and isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in values):
            raise ConfigError(f"option {key!r} takes strings or numbers, got {value!r}")
        # An integral float is written as the int that an int flag takes.
        texts = [str(int(v)) if isinstance(v, float) and v.is_integer() else str(v) for v in values]
        given = [options[key].flag, *texts]
        try:
            parser.parse_args([command, *given])
        except ConfigError as err:
            raise ConfigError(f"config key {key!r}: {err}") from err
        flags += given
    return flags


def _parse(argv: list) -> argparse.Namespace:
    """Each option from its flag, else the config file, else its default."""
    # Only the named command gets its options.  With none named, parsing ends
    # at the top level (help or a usage error), and every command is built.
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    args = parser.parse_args(argv)
    if args.config:
        # The command line's flags follow the file's, so they win.
        flags = _config_flags(parser, args.command, args.config)
        args = parser.parse_args([args.command, *flags, *argv[1:]])
    for option in _OPTIONS:
        if (args.command in option.commands and option.required
                and getattr(args, option.name) is None):
            raise ConfigError(
                f"{args.command}: option {option.flag} is required (a flag or a config key)"
            )
    return args


def main(argv=None) -> int:
    try:
        # The parser is dropped before the command runs: held, it raises peak RSS.
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (SpanObjError, OSError) as err:
        kind = type(err).__name__ if isinstance(err, SpanObjError) else "OSError"
        sys.stderr.write(json.dumps({"error": kind, "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads.

Each workload is a closed loop run by one single-threaded client: the next
call into the package is issued when the previous one returns.  ``setup``
builds the inputs from the seed (corpus generation, vocabulary, encoding);
``run_once`` is one full pass of the workload and returns an
:class:`Outcome` with its timings, operation counts, output digest and the
problems its output checks found.
``passage_length`` picks the reference computation (``reference.py``)
that is timed next to each pass.

Sizes are chosen so that one pass takes a few seconds on a 2-vCPU machine,
which lets a run of ``--seconds`` seconds repeat the pass several times and
report medians.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from spanobj import cli, data, decoding, evaluation, model
from spanobj.errors import SpanObjError

from checks import Operations, check_ranked

TOP_K = 20
ZETA = decoding.DEFAULT_MAX_SPAN_LENGTH
SURFACE_K = decoding.DEFAULT_SURFACE_TOP_K
FILTERS = "lf+sf"
TRAIN_SEED = 1


@dataclass
class Outcome:
    """One pass of a workload."""

    wall_s: float
    ops: Operations
    digest: str
    train_examples: int = 0
    train_s: float = 0.0
    decoded: int = 0
    decode_s: float = 0.0
    dev_em: float = 0.0
    dev_cross_rate: float = 0.0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _train_config(objective: str, epochs: int) -> model.TrainConfig:
    # The criterion-7 hyperparameters.
    return model.TrainConfig(
        objective=objective, learning_rate=3e-3, weight_decay=0.01, batch_size=32,
        epochs=epochs, seed=TRAIN_SEED,
    )


def _twin_corpus(n_train: int, n_dev: int, distractors: int) -> data.GeneratorConfig:
    # Passage length is 6 tokens per fact: L = 6 * (distractors + 1).
    return data.GeneratorConfig(
        n_train=n_train, n_dev=n_dev, subjects=30, attributes=6, value_pool=40,
        ambiguous_fraction=0.3, distractors=distractors, mode=data.MODE_TWIN,
        passages_per_topic=4,
    )


@dataclass
class Encoded:
    train: list
    dev: list
    vocab_size: int


def _encode(config: data.GeneratorConfig, seed: int) -> Encoded:
    dataset = data.generate_synthetic(config, seed)
    vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
    return Encoded(
        data.encode_examples(dataset.train, vocab),
        data.encode_examples(dataset.dev, vocab),
        len(vocab),
    )


def _crosses(span, example) -> tuple:
    """(eligible, crosses) for a rank-1 span against the candidate answer regions."""
    regions = [(t.start, t.end) for t in getattr(example, "candidate_spans", ())]
    if len(regions) < 2:
        return 0, 0
    return 1, int(decoding.span_crosses(span, regions))


def _check_report(report, n: int, where: str) -> list:
    problems = []
    if report.n != n:
        problems.append(f"{where}: scored {report.n} of {n} dev examples")
    for name, value, hi in (("em", report.em, 100.0), ("f1", report.f1, 100.0),
                            ("cross_rate", report.cross_rate, 1.0)):
        if not (math.isfinite(value) and 0.0 <= value <= hi):
            problems.append(f"{where}: {name} {value!r} outside [0, {hi}]")
    return problems


class TrainShort:
    """Criterion-7 shape: four objectives trained at L=12, dev scored greedily."""

    name = "train-short"
    objectives = ("independent", "joint", "compound", "conditional")
    corpus = _twin_corpus(n_train=300, n_dev=100, distractors=1)
    epochs = 3
    passage_length = 12

    def setup(self, seed: int) -> Encoded:
        return _encode(self.corpus, seed)

    def run_once(self, inputs: Encoded, tracer=None, workdir=None) -> Outcome:
        ops = Operations(SpanObjError)
        digest = hashlib.sha256()
        problems, ems, crosses = [], [], []
        train_s = decode_s = 0.0
        n_dev = len(inputs.dev)
        t0 = time.perf_counter()
        for objective in self.objectives:
            a = time.perf_counter()
            result = model.train(inputs.train, _train_config(objective, self.epochs),
                                 vocab_size=inputs.vocab_size)
            b = time.perf_counter()
            report = ops.attempt(model.evaluate_model, result.params, inputs.dev, objective,
                                 count=n_dev)
            decode_s += time.perf_counter() - b
            train_s += b - a
            if report is None:
                continue
            problems += _check_report(report, n_dev, f"{self.name}/{objective}")
            loss = result.log[-1]["loss"] if result.log else float("nan")
            if not math.isfinite(loss):
                problems.append(f"{self.name}/{objective}: final training loss {loss!r}")
            ems.append(report.em)
            crosses.append(report.cross_rate)
            digest.update(repr((objective, loss, report.em, report.f1, report.cross_rate)).encode())
        wall = time.perf_counter() - t0
        decoded = len(ems) * n_dev
        return Outcome(
            wall_s=wall, ops=ops, digest=digest.hexdigest(),
            train_examples=len(inputs.train) * self.epochs * len(self.objectives), train_s=train_s,
            decoded=decoded, decode_s=decode_s,
            dev_em=_mean(ems), dev_cross_rate=_mean(crosses), problems=problems,
            counts={"decoding.failed": ops.failed},
        )


def _decode(params, enc, objective: str):
    """One example decoded the way ``spanobj decode`` does it."""
    dist = model.predict_distribution(params, enc.question_ids, enc.passage_ids, objective)
    dist = decoding.apply_filters(dist, enc.example.passage, FILTERS, ZETA, SURFACE_K)
    return decoding.top_k(dist, TOP_K, enc.example.passage)


class LongPassages:
    """L=180 passages: a short training run, then CLI-style ranked decoding per example."""

    name = "long-passages"
    objectives = ("independent", "compound", "conditional")
    corpus = _twin_corpus(n_train=32, n_dev=5, distractors=29)
    epochs = 2
    passage_length = 180

    def setup(self, seed: int) -> Encoded:
        return _encode(self.corpus, seed)

    def run_once(self, inputs: Encoded, tracer=None, workdir=None) -> Outcome:
        ops = Operations(SpanObjError)
        digest = hashlib.sha256()
        problems, ems = [], []
        eligible = crossed = decoded = 0
        train_s = decode_s = 0.0
        t0 = time.perf_counter()
        for objective in self.objectives:
            a = time.perf_counter()
            result = model.train(inputs.train, _train_config(objective, self.epochs),
                                 vocab_size=inputs.vocab_size)
            train_s += time.perf_counter() - a
            hits = []
            for enc in inputs.dev:
                a = time.perf_counter()
                preds = ops.attempt(_decode, result.params, enc, objective)
                decode_s += time.perf_counter() - a
                if preds is None:
                    hits.append(0)
                    digest.update(f"{objective}/{enc.id}: failed\n".encode())
                    continue
                decoded += 1
                rows = [(p.span.start, p.span.end, p.probability) for p in preds]
                problems += check_ranked(rows, ZETA, f"{self.name}/{objective}/{enc.id}")
                digest.update(repr((objective, enc.id, rows, [p.text for p in preds])).encode())
                if preds:
                    hits.append(evaluation.em_f1(preds[0].text, enc.example.answers)[0])
                    e, c = _crosses((preds[0].span.start, preds[0].span.end), enc.example)
                    eligible += e
                    crossed += c
                else:
                    hits.append(0)
            ems.append(100.0 * _mean(hits))
        wall = time.perf_counter() - t0
        return Outcome(
            wall_s=wall, ops=ops, digest=digest.hexdigest(),
            train_examples=len(inputs.train) * self.epochs * len(self.objectives), train_s=train_s,
            decoded=decoded, decode_s=decode_s,
            dev_em=_mean(ems), dev_cross_rate=crossed / eligible if eligible else 0.0,
            problems=problems, counts={"decoding.failed": ops.failed},
        )


@dataclass
class Reference:
    """The corpus the pipeline's ``generate`` writes, rebuilt in memory for checks."""

    dev: list
    seed: int


class CliPipeline:
    """``generate -> context -> train x2 -> decode -> eval -> stats`` through ``cli.main``."""

    name = "cli-pipeline"
    corpus = data.GeneratorConfig(
        n_train=150, n_dev=75, subjects=30, attributes=6, value_pool=40,
        ambiguous_fraction=0.3, distractors=1, mode=data.MODE_GROUPED, passages_per_topic=4,
    )
    objectives = ("compound-shared", "compound")
    seeds = (1, 2)
    epochs = 2
    passage_length = 12

    def setup(self, seed: int) -> Reference:
        dataset = data.generate_synthetic(self.corpus, seed)
        vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
        return Reference(data.encode_examples(dataset.dev, vocab), seed)

    def steps(self, seed: int):
        """(command argv, input files, output files), relative to the work directory."""
        c = self.corpus
        corpus = ["corpus/train.jsonl", "corpus/dev.jsonl"]
        steps = [
            (["generate", "--out", "corpus", "--seed", str(seed), "--n-train", str(c.n_train),
              "--n-dev", str(c.n_dev), "--subjects", str(c.subjects),
              "--attributes", str(c.attributes), "--value-pool", str(c.value_pool),
              "--ambiguous-fraction", str(c.ambiguous_fraction),
              "--distractors", str(c.distractors), "--mode", c.mode,
              "--passages-per-topic", str(c.passages_per_topic)],
             [], corpus + ["corpus/embeddings.txt"]),
            (["context", "--data", "corpus/train.jsonl", "--embeddings", "corpus/embeddings.txt",
              "--out", "contexts.jsonl", "--context-size", "2", "--seed", str(seed)],
             ["corpus/train.jsonl", "corpus/embeddings.txt"], ["contexts.jsonl"]),
        ]
        seeds = ",".join(str(s) for s in self.seeds)
        for objective in self.objectives:
            argv = ["train", "--data", "corpus", "--out", "runs", "--objective", objective,
                    "--seeds", seeds, "--epochs", str(self.epochs), "--learning-rate", "3e-3"]
            inputs = list(corpus)
            if objective == "compound-shared":
                argv += ["--contexts", "contexts.jsonl"]
                inputs.append("contexts.jsonl")
            outputs = [f"runs/{objective}-seed{s}{suffix}" for s in self.seeds
                       for suffix in (".ckpt", "-log.json")]
            steps.append((argv, inputs, outputs))
        for objective in self.objectives:
            for s in self.seeds:
                tag = f"{objective}-seed{s}"
                steps.append((["decode", "--checkpoint", f"runs/{tag}.ckpt", "--data",
                               "corpus/dev.jsonl", "--out", f"preds-{tag}.jsonl",
                               "--filter", FILTERS, "--top-k", str(TOP_K)],
                              [f"runs/{tag}.ckpt", "corpus/dev.jsonl"], [f"preds-{tag}.jsonl"]))
                steps.append((["eval", "--predictions", f"preds-{tag}.jsonl", "--gold",
                               "corpus/dev.jsonl", "--out", f"report-{tag}.json",
                               "--hist-out", f"hist-{tag}.csv", "--top-k", str(TOP_K)],
                              [f"preds-{tag}.jsonl", "corpus/dev.jsonl"],
                              [f"report-{tag}.json", f"hist-{tag}.csv"]))
        metric_files = [f"metrics-{o}.json" for o in self.objectives]
        steps.append((["stats", "--metrics", *metric_files, "--comparisons",
                       f"{self.objectives[0]}>{self.objectives[1]}", "--out", "significance.txt"],
                      metric_files, ["significance.txt"]))
        return steps

    def run_once(self, ref: Reference, tracer=None, workdir=None) -> Outcome:
        work = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        try:
            return self._run_in(work, ref, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run_in(self, work: str, ref: Reference, tracer) -> Outcome:
        ops = Operations(SpanObjError)

        def path(rel):
            return os.path.join(work, rel)

        walls: dict = {}
        bytes_read = bytes_written = 0
        train_s = decode_s = 0.0
        decoded = decode_failures = 0
        t0 = time.perf_counter()
        for argv, inputs, outputs in self.steps(ref.seed):
            command = argv[0]
            if command == "stats":
                self._write_metric_files(path)
            bytes_read += sum(_size(path(f)) for f in inputs)
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            a = time.perf_counter()
            with span, _inside(work), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            wall = time.perf_counter() - a
            ops.attempted += 1
            if code != 0:
                ops.record_failure(f"cli.{command}:{_error_type(err.getvalue())}")
            walls[command] = walls.get(command, 0.0) + wall
            bytes_written += sum(_size(path(f)) for f in outputs)
            if command == "train":
                train_s += wall
            elif command == "decode":
                decode_s += wall
                decoded += len(ref.dev) if code == 0 else 0
                decode_failures += code != 0
        wall = time.perf_counter() - t0
        outcome = Outcome(
            wall_s=wall, ops=ops, digest="",
            train_examples=self.corpus.n_train * self.epochs * len(self.seeds) * len(self.objectives),
            train_s=train_s, decoded=decoded, decode_s=decode_s,
        )
        self._check(work, ref, outcome)
        ckpts = [path(f"runs/{o}-seed{s}.ckpt") for o in self.objectives for s in self.seeds]
        outcome.counts = {
            **{f"cli.{c}.wall_s": walls.get(c, 0.0)
               for c in ("generate", "context", "train", "decode", "eval", "stats")},
            "cli.failed": ops.failed,
            "decoding.failed": decode_failures,
            "cli.bytes_written": bytes_written,
            "cli.bytes_read": bytes_read,
            "model.checkpoint_bytes": sum(_size(p) for p in ckpts),
            **self._context_counts(path),
        }
        return outcome

    def _write_metric_files(self, path) -> None:
        """Per-seed dev EM of each objective, the input of ``stats``.

        A report that an earlier failed command did not write leaves its
        metric file unwritten, so ``stats`` fails too and is counted.
        """
        for objective in self.objectives:
            try:
                values = [_read_json(path(f"report-{objective}-seed{s}.json"))["em"]
                          for s in self.seeds]
            except (OSError, ValueError, KeyError):
                continue
            with open(path(f"metrics-{objective}.json"), "w", encoding="utf-8") as fh:
                json.dump({"label": objective, "seeds": list(self.seeds), "values": values}, fh)

    def _context_counts(self, path) -> dict:
        used = skipped = 0
        for s in self.seeds:
            log = path(f"runs/compound-shared-seed{s}-log.json")
            for entry in _read_json(log) if os.path.exists(log) else ():
                used += entry.get("examples", 0)
                skipped += entry.get("skipped", 0)
        return {"model.contexts_skipped": skipped,
                "model.context_yield": used / (used + skipped) if used + skipped else 0.0}

    def _check(self, work: str, ref: Reference, outcome: Outcome) -> None:
        """Every expected file exists, ranked lists are well formed, stats compared."""
        problems = outcome.problems
        digest = hashlib.sha256()
        for _, _, outputs in self.steps(ref.seed):
            for rel in outputs:
                if not os.path.exists(os.path.join(work, rel)):
                    problems.append(f"{self.name}: missing output {rel}")
                    continue
                with open(os.path.join(work, rel), "rb") as fh:
                    digest.update(rel.encode() + b"\0" + fh.read())
        outcome.digest = digest.hexdigest()
        if problems:
            return
        dev_ids = [enc.id for enc in ref.dev]
        by_id = {enc.id: enc.example for enc in ref.dev}
        ems = []
        eligible = crossed = 0
        for objective in self.objectives:
            for s in self.seeds:
                tag = f"{objective}-seed{s}"
                ranked: dict = {}
                with open(os.path.join(work, f"preds-{tag}.jsonl"), encoding="utf-8") as fh:
                    for line in fh:
                        r = json.loads(line)
                        ranked.setdefault(r["example_id"], []).append(r)
                if sorted(ranked) != sorted(dev_ids):
                    problems.append(f"{self.name}/{tag}: predictions do not cover the dev set")
                    continue
                for eid, rows in ranked.items():
                    if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
                        problems.append(f"{self.name}/{tag}/{eid}: ranks are not 1..{len(rows)}")
                    problems += check_ranked([(r["start"], r["end"], r["probability"]) for r in rows],
                                             ZETA, f"{self.name}/{tag}/{eid}")
                    e, c = _crosses((rows[0]["start"], rows[0]["end"]), by_id[eid])
                    eligible += e
                    crossed += c
                report = _read_json(os.path.join(work, f"report-{tag}.json"))
                if report.get("n") != len(dev_ids) or not 0.0 <= report.get("em", -1.0) <= 100.0:
                    problems.append(f"{self.name}/{tag}: bad eval report {report}")
                ems.append(report.get("em", 0.0))
        with open(os.path.join(work, "significance.txt"), encoding="utf-8") as fh:
            text = fh.read()
        line = f"{self.objectives[0]} > {self.objectives[1]}:"
        if line not in text:
            problems.append(f"{self.name}: significance report lacks the line {line!r}")
        outcome.dev_em = _mean(ems)
        outcome.dev_cross_rate = crossed / eligible if eligible else 0.0


@contextlib.contextmanager
def _inside(directory: str):
    """Run a CLI command with the work directory as its current directory."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _error_type(stderr: str) -> str:
    try:
        return json.loads(stderr.strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        return "unknown"


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {w.name: w for w in (TrainShort(), LongPassages(), CliPipeline())}

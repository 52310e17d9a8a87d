"""Datasets, distant supervision, retrieval scoring, and synthetic corpora.

Text handling is deliberately simple: lowercased word/punctuation tokens
with retained character offsets, so answer strings can be matched exactly
and predicted spans can be turned back into strings.

The synthetic generator builds closed-vocabulary fact corpora in three
shapes: passages with a same-attribute twin fact (two plausible answer
candidates), passages whose values sit inside paired quote tokens, and
topic-grouped passage pools where an answer string recurs across several
passages of the same subject.  A fraction of questions name only the
attribute, not the subject; those are irreducibly ambiguous between the two
candidates, which is what makes boundary decoders and span decoders come
apart at convergence.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import MALFORMED_RECORD_ERRORS, ConfigError, InvalidInputError, malformed
from .objectives import SpanTarget

UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str):
    """Lowercased tokens plus (start, end) character offsets into ``text``."""
    tokens = []
    offsets = []
    for match in _TOKEN_RE.finditer(text):
        tokens.append(match.group().lower())
        offsets.append((match.start(), match.end()))
    return tokens, offsets


# ---------------------------------------------------------------------------
# Core records


@dataclass
class Passage:
    """Raw passage text with token/offset alignment."""

    id: str
    text: str
    tokens: list
    offsets: list

    @classmethod
    def from_text(cls, pid: str, text: str) -> "Passage":
        tokens, offsets = tokenize(text)
        if not tokens:
            raise InvalidInputError(f"passage {pid!r} has no tokens")
        return cls(pid, text, tokens, offsets)

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.offsets):
            raise InvalidInputError("token/offset length mismatch")
        last = -1
        for lo, hi in self.offsets:
            if not (last <= lo < hi):
                raise InvalidInputError("offsets must be strictly increasing")
            last = hi

    def __len__(self) -> int:
        return len(self.tokens)

    def span_text(self, start: int, end: int) -> str:
        """Whitespace-trimmed substring covered by an inclusive token span."""
        if not (0 <= start <= end < len(self.tokens)):
            raise InvalidInputError(
                f"span ({start}, {end}) out of range for passage of {len(self.tokens)} tokens"
            )
        return self.text[self.offsets[start][0] : self.offsets[end][1]].strip()


def char_span_to_token_span(passage: Passage, char_start: int, text: str) -> SpanTarget:
    """Token span whose covered text equals ``text`` starting at ``char_start``."""
    char_end = char_start + len(text)
    start = end = None
    for idx, (lo, hi) in enumerate(passage.offsets):
        if start is None and hi > char_start:
            start = idx
        if hi >= char_end:
            end = idx
            break
    if start is None or end is None:
        raise InvalidInputError(f"character span {char_start}+{len(text)} out of range")
    span = SpanTarget(start, end)
    if passage.span_text(start, end).lower() != text.strip().lower():
        raise InvalidInputError(
            f"character span does not cover {text!r} (got {passage.span_text(start, end)!r})"
        )
    return span


@dataclass
class Example:
    """One question/passage/answer record."""

    id: str
    question: str
    question_tokens: list
    passage: Passage
    answers: list
    gold_span: SpanTarget
    candidate_spans: list = field(default_factory=list)

    @classmethod
    def build(cls, eid, question, passage, answers, gold_span, candidate_spans=()):
        tokens, _ = tokenize(question)
        if not tokens:
            raise InvalidInputError(f"example {eid!r} has an empty question")
        return cls(eid, question, tokens, passage, list(answers), gold_span, list(candidate_spans))

    def __post_init__(self) -> None:
        if not self.answers:
            raise InvalidInputError(f"example {self.id!r} has no gold answers")
        covered = self.passage.span_text(self.gold_span.start, self.gold_span.end).lower()
        if covered not in {a.strip().lower() for a in self.answers}:
            raise InvalidInputError(
                f"example {self.id!r}: gold span covers {covered!r}, not a gold answer"
            )


@dataclass
class EncodedExample:
    """An example with token ids attached, ready for the model."""

    id: str
    question_ids: np.ndarray
    passage_ids: np.ndarray
    target: SpanTarget
    example: Example


class Vocabulary:
    """Closed token vocabulary; id 0 is reserved for unknown tokens."""

    def __init__(self, tokens) -> None:
        tokens = list(tokens)
        if not tokens or tokens[0] != UNK_TOKEN:
            tokens = [UNK_TOKEN] + [t for t in tokens if t != UNK_TOKEN]
        if len(set(tokens)) != len(tokens):
            raise InvalidInputError("duplicate vocabulary tokens")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_examples(cls, examples) -> "Vocabulary":
        seen = set()
        for ex in examples:
            seen.update(ex.question_tokens)
            seen.update(ex.passage.tokens)
        return cls([UNK_TOKEN] + sorted(seen))

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.index.get(t, 0) for t in tokens], dtype=np.int64)


def _passage_encoder(vocab: Vocabulary):
    """``vocab.encode`` of a passage's tokens, encoded once per Passage object."""
    encoded = {}

    def encode(passage: Passage) -> np.ndarray:
        # The passage is held with its ids, so its id() is never reused.
        held = encoded.get(id(passage))
        if held is None:
            held = encoded[id(passage)] = (passage, vocab.encode(passage.tokens))
        return held[1]

    return encode


def encode_examples(examples, vocab: Vocabulary):
    """Encoded examples; examples sharing one Passage share one id array."""
    encode_passage = _passage_encoder(vocab)
    return [
        EncodedExample(
            ex.id,
            vocab.encode(ex.question_tokens),
            encode_passage(ex.passage),
            ex.gold_span,
            ex,
        )
        for ex in examples
    ]


# ---------------------------------------------------------------------------
# Distant supervision


def annotate_gt(passage: Passage, answer: str) -> set:
    """All token spans whose trimmed text equals the answer, case-insensitively.

    The candidate spans are exactly those with the answer's own token count:
    equal strings tokenize equally, so no other width can match.
    """
    needle = answer.strip().lower()
    if not needle:
        raise InvalidInputError("empty answer string")
    width = len(tokenize(needle)[0])
    if width == 0:
        raise InvalidInputError(f"answer {answer!r} has no tokens")
    spans = set()
    for start in range(len(passage.tokens) - width + 1):
        end = start + width - 1
        if passage.span_text(start, end).lower() == needle:
            spans.add(SpanTarget(start, end))
    return spans


# ---------------------------------------------------------------------------
# Retrieval


@dataclass
class EmbeddingTable:
    """Passage embeddings with an id index."""

    ids: list
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise InvalidInputError("embedding table shape does not match id count")
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidInputError("embedding table has non-finite values")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidInputError("duplicate passage ids in embedding table")
        self.row_of = {pid: i for i, pid in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def score_passages(q_vec: np.ndarray, table: EmbeddingTable):
    """Passages ranked by cosine similarity to the question vector.

    Zero-norm vectors score 0 by convention.  Ties keep table order, so the
    ranking is deterministic.
    """
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if q_vec.shape != (table.dim,):
        raise InvalidInputError(f"query dim {q_vec.shape} does not match table dim {table.dim}")
    q_norm = np.linalg.norm(q_vec)
    row_norms = np.linalg.norm(table.matrix, axis=1)
    if q_norm == 0.0:
        scores = np.zeros(len(table.ids))
    else:
        scores = table.matrix @ q_vec
        safe = np.where(row_norms == 0.0, 1.0, row_norms)
        scores = np.where(row_norms == 0.0, 0.0, scores / (safe * q_norm))
    order = np.argsort(-scores, kind="stable")
    return [(table.ids[i], float(scores[i])) for i in order]


@dataclass
class ContextPassage:
    passage: Passage
    score: float
    gt_spans: set


@dataclass
class ContextSet:
    """Retrieved passages plus distant supervision for one question."""

    question_id: str
    question: str
    question_tokens: list
    passages: list
    short: bool = False

    def __post_init__(self) -> None:
        scores = [p.score for p in self.passages]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise InvalidInputError("context passages must be sorted by descending score")


def build_context(
    ranking,
    answer: str,
    passages_by_id: dict,
    k: int,
    rng,
    question_id: str,
    question: str,
) -> ContextSet:
    """Top-k retrieval context with half the answerless passages discarded.

    From the full ranking, each passage lacking a case-insensitive substring
    match of the answer is pooled; a uniformly random half of that pool is
    dropped (seeded), answer-bearing passages always survive, and the top-k
    of what remains (in ranking order) forms the context.  If fewer than k
    passages survive, the context is returned short and flagged.
    """
    if k < 1:
        raise ConfigError(f"context size must be >= 1, got {k}")
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ConfigError(f"context seed must be >= 0, got {rng}")
        rng = np.random.default_rng(np.random.SeedSequence([int(rng)]))
    needle = answer.strip().lower()
    barren = []
    for i, (pid, _) in enumerate(ranking):
        if pid not in passages_by_id:
            raise InvalidInputError(f"ranking references unknown passage {pid!r}")
        if needle not in passages_by_id[pid].text.lower():
            barren.append(i)
    dropped = set()
    if len(barren) >= 2:
        picks = rng.choice(len(barren), size=len(barren) // 2, replace=False)
        dropped = {barren[j] for j in picks.tolist()}
    chosen = [entry for i, entry in enumerate(ranking) if i not in dropped][:k]
    tokens, _ = tokenize(question)
    return ContextSet(
        question_id=question_id,
        question=question,
        question_tokens=tokens,
        passages=[
            ContextPassage(passages_by_id[pid], score, annotate_gt(passages_by_id[pid], answer))
            for pid, score in chosen
        ],
        short=len(chosen) < k,
    )


@dataclass
class EncodedContextPassage:
    passage_ids: np.ndarray
    gt_spans: set
    passage: Passage


@dataclass
class EncodedContext:
    question_id: str
    question_ids: np.ndarray
    passages: list


def encode_contexts(contexts, vocab: Vocabulary):
    """Encoded contexts; passages sharing one Passage share one id array."""
    encode_passage = _passage_encoder(vocab)
    encoded = []
    for ctx in contexts:
        encoded.append(
            EncodedContext(
                ctx.question_id,
                vocab.encode(ctx.question_tokens),
                [
                    EncodedContextPassage(encode_passage(p.passage), p.gt_spans, p.passage)
                    for p in ctx.passages
                ],
            )
        )
    return encoded


# ---------------------------------------------------------------------------
# File formats


# Every record file (datasets, contexts, predictions, logs, reports and
# checkpoint headers) holds this one encoder's bytes: sorted keys and no
# spaces, so identical records give identical bytes.  Prediction lines are
# formatted to the same bytes directly (:func:`prediction_lines`), and a
# property test holds them to this encoder.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """A new file that replaces ``path`` once the block ends without error.

    It is written next to ``path`` and moved over it with ``os.replace``, so
    an interrupted write leaves the previous file whole; on an error the
    partial file is removed.
    """
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def write_records(path, records) -> None:
    """One :data:`canonical_json` object per line, replacing ``path`` whole (:func:`replacing`)."""
    text = "".join([canonical_json(record) + "\n" for record in records])
    with replacing(path) as fh:
        fh.write(text)


# The encoder's string codec: ASCII-only, as canonical_json writes strings.
_json_string = json.encoder.encode_basestring_ascii


def prediction_lines(example_id, predictions) -> str:
    """The :data:`canonical_json` lines of one example's ranked predictions.

    Each line is the record ``{example_id, rank, start, end, text,
    probability}`` of one :class:`~spanobj.decoding.Prediction`, ranks from
    1, written as the encoder writes it: keys sorted, the id encoded once,
    the text as an ASCII-escaped JSON string and the probability by
    ``float.__repr__``.
    """
    example_id = canonical_json(example_id)
    return "".join([
        f'{{"end":{p.span.end},"example_id":{example_id},'
        f'"probability":{float.__repr__(p.probability)},"rank":{rank},'
        f'"start":{p.span.start},"text":{_json_string(p.text)}}}\n'
        for rank, p in enumerate(predictions, 1)
    ])


def read_records(path, what: str, parse) -> list:
    """``parse`` of the JSON of every non-blank line, in file order.

    A line that does not parse raises :class:`MalformedFileError`
    ``<path>:<line>: bad <what>: ...``; a file without records raises
    :class:`InvalidInputError`.
    """
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except MALFORMED_RECORD_ERRORS as err:
                raise malformed(path, line_no, what, err) from err
    if not parsed:
        raise InvalidInputError(f"{path}: no {what}s")
    return parsed


def save_dataset(examples, path) -> None:
    """Line-delimited records with character-level answer starts."""
    write_records(path, (
        {
            "id": ex.id,
            "question": ex.question,
            "passage": ex.passage.text,
            "passage_id": ex.passage.id,
            "answers": ex.answers,
            "answer_starts": [ex.passage.offsets[ex.gold_span.start][0]],
            "candidates": [
                {
                    "start": ex.passage.offsets[span.start][0],
                    "text": ex.passage.span_text(span.start, span.end),
                }
                for span in ex.candidate_spans
            ],
        }
        for ex in examples
    ))


def _intern(passages: dict, pid, text) -> Passage:
    """The one Passage of ``(pid, text)`` in ``passages``, tokenized on first use."""
    key = (pid, text)
    passage = passages.get(key)
    if passage is None:
        passage = passages[key] = Passage.from_text(pid, text)
    return passage


def load_dataset(path):
    """Examples of a dataset file; records with one ``(passage_id, passage)``
    share one :class:`Passage`."""
    passages = {}

    def parse(record) -> Example:
        passage = _intern(passages, record["passage_id"], record["passage"])
        gold = char_span_to_token_span(passage, record["answer_starts"][0], record["answers"][0])
        candidates = [
            char_span_to_token_span(passage, c["start"], c["text"])
            for c in record.get("candidates", [])
        ]
        return Example.build(
            record["id"], record["question"], passage, record["answers"], gold, candidates
        )

    return read_records(path, "record", parse)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Headered text format: "<rows> <dim>" then one id + vector per line,
    replacing ``path`` whole (:func:`replacing`)."""
    with replacing(path) as fh:
        fh.write(f"{len(table.ids)} {table.dim}\n")
        for pid, row in zip(table.ids, table.matrix):
            fh.write(pid + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_embeddings(path) -> EmbeddingTable:
    ids, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        line_no = 1
        try:
            count, dim = (int(v) for v in fh.readline().split())
            if count < 0 or dim < 1:
                raise ValueError(f"table of {count} rows of {dim} values")
            for line_no in range(2, count + 2):
                parts = fh.readline().split()
                if len(parts) != dim + 1:
                    raise ValueError(f"expected an id and {dim} values, got {len(parts)} fields")
                ids.append(parts[0])
                rows.append([float(v) for v in parts[1:]])
        except MALFORMED_RECORD_ERRORS as err:
            what = "embedding header" if line_no == 1 else "embedding row"
            raise malformed(path, line_no, what, err) from err
    return EmbeddingTable(ids, np.array(rows).reshape(len(rows), dim))


def save_contexts(contexts, path) -> None:
    """Self-contained context records (passages inlined for training)."""
    write_records(path, (
        {
            "question_id": ctx.question_id,
            "question": ctx.question,
            "short": ctx.short,
            "passages": [
                {
                    "id": p.passage.id,
                    "text": p.passage.text,
                    "score": p.score,
                    "gt": sorted((t.start, t.end) for t in p.gt_spans),
                }
                for p in ctx.passages
            ],
        }
        for ctx in contexts
    ))


def load_contexts(path):
    """Contexts of a contexts file; passages with one ``(id, text)`` share one
    :class:`Passage`."""
    interned = {}

    def parse(record) -> ContextSet:
        passages = []
        for p in record["passages"]:
            passage = _intern(interned, p["id"], p["text"])
            gt = {SpanTarget(s, e) for s, e in p["gt"]}
            for span in gt:
                span.check_length(len(passage))
            passages.append(ContextPassage(passage, p["score"], gt))
        if not passages:
            raise ValueError("context has no passages")
        tokens, _ = tokenize(record["question"])
        return ContextSet(
            record["question_id"], record["question"], tokens, passages, record["short"]
        )

    return read_records(path, "context", parse)


# ---------------------------------------------------------------------------
# Synthetic corpora

MODE_TWIN = "twin"
MODE_QUOTED = "quoted"
MODE_GROUPED = "grouped"
GENERATOR_MODES = (MODE_TWIN, MODE_QUOTED, MODE_GROUPED)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic fact corpus."""

    n_train: int = 2000
    n_dev: int = 500
    subjects: int = 30
    attributes: int = 6
    value_pool: int = 40
    ambiguous_fraction: float = 0.3
    distractors: int = 1
    mode: str = MODE_TWIN
    passages_per_topic: int = 4
    embedding_noise: float = 0.01

    def __post_init__(self) -> None:
        if min(self.n_train, self.n_dev, self.subjects, self.attributes, self.value_pool) < 1:
            raise ConfigError("corpus sizes must be >= 1")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise ConfigError("ambiguous fraction must be in [0, 1]")
        if self.distractors < 0:
            raise ConfigError("distractors must be >= 0")
        if self.mode not in GENERATOR_MODES:
            raise ConfigError(f"unknown generator mode {self.mode!r}")
        if self.mode == MODE_TWIN or self.mode == MODE_QUOTED:
            if self.distractors >= self.subjects:
                raise ConfigError("need more subjects than distractors")
        if self.mode == MODE_GROUPED and self.passages_per_topic < 2:
            raise ConfigError("grouped mode needs >= 2 passages per topic")


@dataclass
class SyntheticDataset:
    train: list
    dev: list
    passages: list            # every distinct passage, aligned with the table
    table: EmbeddingTable
    config: GeneratorConfig
    seed: int

    def vocabulary(self) -> Vocabulary:
        return Vocabulary.from_examples(self.train + self.dev)


def _fact_table(config: GeneratorConfig, rng) -> dict:
    # Unique (first, second) value-token pair per (subject, attribute) fact.
    n_facts = config.subjects * config.attributes
    n_pairs = config.value_pool * config.value_pool
    if n_facts > n_pairs:
        raise ConfigError("value pool too small for a unique value per fact")
    picks = rng.choice(n_pairs, size=n_facts, replace=False)
    facts = {}
    k = 0
    for s in range(config.subjects):
        for a in range(config.attributes):
            first, second = divmod(int(picks[k]), config.value_pool)
            facts[(s, a)] = (f"va{first:02d}", f"vb{second:02d}")
            k += 1
    return facts


def _subject(i: int) -> str:
    return f"ent{i:02d}"


def _attribute(i: int) -> str:
    return f"prop{i}"


def _fact_sentence(subject: str, attribute: str, value: tuple, quoted: bool) -> str:
    text = f"{subject} has {attribute} {value[0]} {value[1]}"
    if quoted:
        text = f'{subject} has {attribute} " {value[0]} {value[1]} "'
    return text + " ."


def _twin_example(eid, config, facts, rng, quoted: bool):
    """One passage with the gold fact and same-attribute twins; returns (example, topic)."""
    s = int(rng.integers(config.subjects))
    a = int(rng.integers(config.attributes))
    others = [t for t in range(config.subjects) if t != s]
    twins = rng.choice(len(others), size=config.distractors, replace=False)
    twin_subjects = [others[int(t)] for t in twins]

    sentences = [(s, facts[(s, a)])] + [(t, facts[(t, a)]) for t in twin_subjects]
    order = rng.permutation(len(sentences))
    sentences = [sentences[int(i)] for i in order]

    text = " ".join(
        _fact_sentence(_subject(subj), _attribute(a), value, quoted) for subj, value in sentences
    )
    passage = Passage.from_text(f"p-{eid}", text)

    answer = " ".join(facts[(s, a)])
    candidates = sorted(
        (span for subj, value in sentences for span in annotate_gt(passage, " ".join(value))),
        key=lambda t: (t.start, t.end),
    )
    gold_spans = annotate_gt(passage, answer)
    gold = min(gold_spans, key=lambda t: (t.start, t.end))

    if rng.random() < config.ambiguous_fraction:
        question = f"what is the {_attribute(a)} ?"
    else:
        question = f"what {_attribute(a)} does {_subject(s)} have ?"
    return Example.build(eid, question, passage, [answer], gold, candidates), _subject(s)


def _grouped_pool(config: GeneratorConfig, facts, rng):
    # Each attribute of a subject is written into two *different* passages
    # (round-robin with a rotation), so every fact recurs across the pool.
    passages = []
    ppt = config.passages_per_topic
    for s in range(config.subjects):
        order = [int(i) for i in rng.permutation(config.attributes)]
        chunks = [[] for _ in range(ppt)]
        for i, a in enumerate(order):
            chunks[i % ppt].append(a)
            chunks[(i + 1) % ppt].append(a)
        for g, chunk in enumerate(chunks):
            if not chunk:
                continue
            text = " ".join(
                _fact_sentence(_subject(s), _attribute(a), facts[(s, a)], False) for a in chunk
            )
            passages.append((s, Passage.from_text(f"p-{_subject(s)}-{g}", text)))
    return passages


def _grouped_example(eid, config, facts, pool_by_subject, rng) -> Example:
    s = int(rng.integers(config.subjects))
    a = int(rng.integers(config.attributes))
    answer = " ".join(facts[(s, a)])
    holders = [p for p in pool_by_subject[s] if annotate_gt(p, answer)]
    passage = holders[0]
    spans = sorted(annotate_gt(passage, answer), key=lambda t: (t.start, t.end))
    question = f"what {_attribute(a)} does {_subject(s)} have ?"
    return Example.build(eid, question, passage, [answer], spans[0], spans)


def generate_synthetic(config: GeneratorConfig, seed: int) -> SyntheticDataset:
    """Deterministic synthetic corpus; identical (config, seed) replays byte-for-byte.

    Twin and quoted modes emit one fresh passage per example with the gold
    fact and ``distractors`` same-attribute twin facts in shuffled order.
    Grouped mode emits a per-subject passage pool in which every fact recurs,
    then asks questions against the first holder.  The embedding table marks
    each passage with its subject (plus seeded noise), standing in for a
    trained retrieval encoder.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng_facts = np.random.default_rng(np.random.SeedSequence([int(seed), 10]))
    rng_train = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    rng_dev = np.random.default_rng(np.random.SeedSequence([int(seed), 12]))
    rng_table = np.random.default_rng(np.random.SeedSequence([int(seed), 13]))
    facts = _fact_table(config, rng_facts)

    topics = []
    if config.mode in (MODE_TWIN, MODE_QUOTED):
        quoted = config.mode == MODE_QUOTED
        train = []
        dev = []
        for i in range(config.n_train):
            ex, topic = _twin_example(f"train-{i:04d}", config, facts, rng_train, quoted)
            train.append(ex)
            topics.append(topic)
        for i in range(config.n_dev):
            ex, topic = _twin_example(f"dev-{i:04d}", config, facts, rng_dev, quoted)
            dev.append(ex)
            topics.append(topic)
        passages = [ex.passage for ex in train + dev]
    else:
        pool = _grouped_pool(config, facts, rng_facts)
        pool_by_subject = {}
        for s, passage in pool:
            pool_by_subject.setdefault(s, []).append(passage)
        train = [
            _grouped_example(f"train-{i:04d}", config, facts, pool_by_subject, rng_train)
            for i in range(config.n_train)
        ]
        dev = [
            _grouped_example(f"dev-{i:04d}", config, facts, pool_by_subject, rng_dev)
            for i in range(config.n_dev)
        ]
        passages = [p for _, p in pool]
        topics = [_subject(s) for s, _ in pool]

    subject_index = {_subject(s): s for s in range(config.subjects)}
    matrix = rng_table.normal(0.0, config.embedding_noise, size=(len(passages), config.subjects))
    for row, topic in enumerate(topics):
        matrix[row, subject_index[topic]] += 1.0
    table = EmbeddingTable([p.id for p in passages], matrix)
    return SyntheticDataset(train, dev, passages, table, config, seed)

"""Text handling, distant supervision, retrieval, file formats, synthetic corpora."""

import json
import os
import re

import numpy as np
import pytest

from spanobj.data import (
    ContextPassage,
    ContextSet,
    EmbeddingTable,
    Example,
    GeneratorConfig,
    MODE_GROUPED,
    MODE_QUOTED,
    MODE_TWIN,
    Passage,
    Vocabulary,
    annotate_gt,
    build_context,
    char_span_to_token_span,
    encode_contexts,
    encode_examples,
    generate_synthetic,
    load_contexts,
    load_dataset,
    load_embeddings,
    read_records,
    save_contexts,
    save_dataset,
    save_embeddings,
    score_passages,
    tokenize,
    write_records,
)
from spanobj.errors import ConfigError, InvalidInputError, MalformedFileError
from spanobj.objectives import SpanTarget


# ---------------------------------------------------------------------------
# Tokenization and spans


def test_tokenize_lowercases_and_splits_punctuation():
    tokens, offsets = tokenize('The cat, "sat" twice.')
    assert tokens == ["the", "cat", ",", '"', "sat", '"', "twice", "."]
    for tok, (lo, hi) in zip(tokens, offsets):
        assert 'The cat, "sat" twice.'[lo:hi].lower() == tok


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == ([], [])
    assert tokenize("   \n\t ") == ([], [])


def test_passage_span_text_trims_whitespace():
    passage = Passage.from_text("p", "one two  three")
    assert passage.span_text(0, 1) == "one two"
    assert passage.span_text(1, 2) == "two  three"
    assert len(passage) == 3
    with pytest.raises(InvalidInputError):
        passage.span_text(1, 3)


def test_char_span_round_trips_through_token_span():
    text = "ent01 has prop2 va07 vb13 ."
    passage = Passage.from_text("p", text)
    span = char_span_to_token_span(passage, text.index("va07"), "va07 vb13")
    assert (span.start, span.end) == (3, 4)
    assert passage.span_text(span.start, span.end) == "va07 vb13"
    with pytest.raises(InvalidInputError):
        char_span_to_token_span(passage, 0, "missing text")


def test_example_requires_gold_span_covering_an_answer():
    passage = Passage.from_text("p", "a b c d")
    Example.build("e", "q ?", passage, ["b c"], SpanTarget(1, 2))
    with pytest.raises(InvalidInputError):
        Example.build("e", "q ?", passage, ["b c"], SpanTarget(0, 1))
    with pytest.raises(InvalidInputError):
        Example.build("e", "q ?", passage, [], SpanTarget(1, 2))


# ---------------------------------------------------------------------------
# Vocabulary


def test_vocabulary_reserves_unk_and_encodes_unknowns_to_zero():
    vocab = Vocabulary(["<unk>", "alpha", "beta"])
    assert len(vocab) == 3
    np.testing.assert_array_equal(vocab.encode(["beta", "gamma", "alpha"]), [2, 0, 1])
    prepended = Vocabulary(["alpha", "beta"])
    assert prepended.tokens[0] == "<unk>"


def test_vocabulary_from_examples_is_sorted_and_covers_both_sides():
    passage = Passage.from_text("p", "x y z")
    ex = Example.build("e", "w x ?", passage, ["y"], SpanTarget(1, 1))
    vocab = Vocabulary.from_examples([ex])
    assert vocab.tokens == ["<unk>", "?", "w", "x", "y", "z"]
    encoded = encode_examples([ex], vocab)[0]
    assert encoded.target == SpanTarget(1, 1)
    np.testing.assert_array_equal(encoded.passage_ids, vocab.encode(["x", "y", "z"]))


# ---------------------------------------------------------------------------
# Distant supervision


def test_annotate_gt_finds_every_case_insensitive_occurrence():
    passage = Passage.from_text("p", "Blue sky . blue sky again . BLUE moon")
    spans = annotate_gt(passage, "blue sky")
    assert spans == {SpanTarget(0, 1), SpanTarget(3, 4)}
    assert annotate_gt(passage, "blue") == {SpanTarget(0, 0), SpanTarget(3, 3), SpanTarget(7, 7)}
    assert annotate_gt(passage, "green sky") == set()
    with pytest.raises(InvalidInputError):
        annotate_gt(passage, "   ")


def test_annotate_gt_respects_token_boundaries():
    passage = Passage.from_text("p", "catalog cat dog")
    assert annotate_gt(passage, "cat") == {SpanTarget(1, 1)}


# ---------------------------------------------------------------------------
# Retrieval


def test_score_passages_matches_cosine_oracle():
    rng = np.random.default_rng(42)
    table = EmbeddingTable([f"p{i}" for i in range(6)], rng.normal(size=(6, 4)))
    q = rng.normal(size=4)
    ranking = score_passages(q, table)
    oracle = {}
    for pid, row in zip(table.ids, table.matrix):
        oracle[pid] = float(row @ q / (np.linalg.norm(row) * np.linalg.norm(q)))
    for pid, score in ranking:
        assert score == pytest.approx(oracle[pid], abs=1e-12)
    scores = [s for _, s in ranking]
    assert scores == sorted(scores, reverse=True)


def test_score_passages_zero_norm_conventions():
    table = EmbeddingTable(["a", "b"], np.array([[0.0, 0.0], [1.0, 0.0]]))
    ranking = score_passages(np.array([1.0, 0.0]), table)
    assert ranking == [("b", 1.0), ("a", 0.0)]
    all_zero = score_passages(np.zeros(2), table)
    assert [s for _, s in all_zero] == [0.0, 0.0]
    assert [p for p, _ in all_zero] == ["a", "b"]  # stable tie order


def test_build_context_keeps_answer_bearers_and_drops_half_the_rest():
    passages = {}
    ranking = []
    for i in range(10):
        text = "the answer lives here ." if i % 2 == 0 else "nothing to see ."
        passages[f"p{i}"] = Passage.from_text(f"p{i}", text)
        ranking.append((f"p{i}", 1.0 - i * 0.05))
    rng = np.random.default_rng(0)
    ctx = build_context(ranking, "answer", passages, k=8, rng=rng, question_id="q", question="w ?")
    kept = [p.passage.id for p in ctx.passages]
    # All five bearers survive; 5 barren -> 2 dropped, 3 kept; 8 fill k exactly.
    bearers = {f"p{i}" for i in range(0, 10, 2)}
    assert bearers <= set(kept)
    assert len(kept) == 8
    assert not ctx.short
    shorter = build_context(
        ranking, "answer", passages, k=9, rng=np.random.default_rng(0),
        question_id="q", question="w ?",
    )
    assert shorter.short and len(shorter.passages) == 8
    # Ranking order is preserved.
    order = {pid: i for i, (pid, _) in enumerate(ranking)}
    assert [order[pid] for pid in kept] == sorted(order[pid] for pid in kept)
    # Bearers carry their gold spans.
    for p in ctx.passages:
        if p.passage.id in bearers:
            assert p.gt_spans == {SpanTarget(1, 1)}
        else:
            assert p.gt_spans == set()


def test_build_context_is_deterministic_given_a_seed():
    passages = {
        f"p{i}": Passage.from_text(f"p{i}", f"filler {i} text .") for i in range(12)
    }
    ranking = [(f"p{i}", -float(i)) for i in range(12)]
    a = build_context(ranking, "zzz", passages, 4, 99, "q", "w ?")
    b = build_context(ranking, "zzz", passages, 4, 99, "q", "w ?")
    assert [p.passage.id for p in a.passages] == [p.passage.id for p in b.passages]
    with pytest.raises(ConfigError):
        build_context(ranking, "zzz", passages, 0, 99, "q", "w ?")
    with pytest.raises(InvalidInputError):
        build_context([("ghost", 1.0)], "zzz", passages, 1, 99, "q", "w ?")


# ---------------------------------------------------------------------------
# File formats


def test_dataset_save_load_round_trip(tmp_path):
    config = GeneratorConfig(n_train=12, n_dev=4, subjects=5, attributes=3, value_pool=8)
    dataset = generate_synthetic(config, seed=3)
    path = os.fspath(tmp_path / "train.jsonl")
    save_dataset(dataset.train, path)
    loaded = load_dataset(path)
    assert len(loaded) == 12
    for orig, back in zip(dataset.train, loaded):
        assert back.id == orig.id
        assert back.question == orig.question
        assert back.passage.text == orig.passage.text
        assert back.answers == orig.answers
        assert back.gold_span == orig.gold_span
        assert back.candidate_spans == orig.candidate_spans
    # Round-tripping through save again is byte-identical.
    path2 = os.fspath(tmp_path / "again.jsonl")
    save_dataset(loaded, path2)
    with open(path, "rb") as fa, open(path2, "rb") as fb:
        assert fa.read() == fb.read()


def test_embeddings_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    table = EmbeddingTable([f"p{i}" for i in range(7)], rng.normal(size=(7, 5)))
    path = os.fspath(tmp_path / "emb.txt")
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.ids == table.ids
    np.testing.assert_array_equal(loaded.matrix, table.matrix)  # repr() is lossless


def test_contexts_save_load_round_trip(tmp_path):
    passages = {f"p{i}": Passage.from_text(f"p{i}", f"value {i} here .") for i in range(6)}
    ranking = [(f"p{i}", 1.0 / (1 + i)) for i in range(6)]
    ctx = build_context(ranking, "value 2", passages, 3, 17, "q1", "what value ?")
    path = os.fspath(tmp_path / "ctx.jsonl")
    save_contexts([ctx], path)
    loaded = load_contexts(path)
    assert len(loaded) == 1
    back = loaded[0]
    assert back.question_id == "q1"
    assert [p.passage.id for p in back.passages] == [p.passage.id for p in ctx.passages]
    for orig, rec in zip(ctx.passages, back.passages):
        assert rec.gt_spans == orig.gt_spans
        assert rec.score == pytest.approx(orig.score)
    vocab = Vocabulary.from_examples([])
    encoded = encode_contexts(loaded, Vocabulary(["<unk>", "value", "here", "."]))
    assert encoded[0].passages[0].passage_ids.shape == (4,)


def test_loaders_reject_empty_and_malformed_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(InvalidInputError):
        load_dataset(os.fspath(empty))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    with pytest.raises(InvalidInputError):
        load_dataset(os.fspath(bad))


def test_write_records_writes_the_canonical_bytes(tmp_path):
    # Sorted keys at every depth, no spaces, ASCII escapes, repr floats.
    path = tmp_path / "records.jsonl"
    write_records(os.fspath(path), [
        {"text": "café → ok", "p": 0.1, "nested": {"z": 1, "a": [2.5, None, True]},
         "l": [3, "x"]},
        {},
    ])
    assert path.read_bytes() == (
        b'{"l":[3,"x"],"nested":{"a":[2.5,null,true],"z":1},"p":0.1,'
        b'"text":"caf\\u00e9 \\u2192 ok"}\n{}\n'
    )


def test_a_failed_write_leaves_the_previous_records_whole(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(os.fspath(path), [{"epoch": 0}])
    before = path.read_bytes()

    def records():
        yield {"epoch": 0}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_records(os.fspath(path), records())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


def test_a_failed_embedding_write_leaves_the_previous_table_whole(tmp_path):
    path = tmp_path / "emb.txt"
    save_embeddings(EmbeddingTable(["p0", "p1"], np.eye(2)), os.fspath(path))
    before = path.read_bytes()
    # The second row's id is not a string, so the write fails after the header and a row.
    with pytest.raises(TypeError):
        save_embeddings(EmbeddingTable(["q0", 1], np.ones((2, 2))), os.fspath(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]


def _saved_dataset_and_contexts(tmp_path):
    """Paths of a saved dataset file and of a saved contexts file."""
    config = GeneratorConfig(n_train=8, n_dev=2, subjects=4, attributes=2, value_pool=6)
    dataset = generate_synthetic(config, seed=5)
    passages_by_id = {p.id: p for p in dataset.passages}
    table = dataset.table
    contexts = [
        build_context(
            score_passages(table.matrix[table.row_of[ex.passage.id]], table), ex.answers[0],
            passages_by_id, 3, i, ex.id, ex.question,
        )
        for i, ex in enumerate(dataset.train)
    ]
    dataset_path = os.fspath(tmp_path / "train.jsonl")
    contexts_path = os.fspath(tmp_path / "contexts.jsonl")
    save_dataset(dataset.train, dataset_path)
    save_contexts(contexts, contexts_path)
    return dataset_path, contexts_path


_READERS = [(load_dataset, save_dataset, 0), (load_contexts, save_contexts, 1)]


@pytest.mark.parametrize("load, save, which", _READERS)
def test_readers_skip_blank_lines_and_carriage_returns(tmp_path, load, save, which):
    clean = _saved_dataset_and_contexts(tmp_path)[which]
    with open(clean, "rb") as fh:
        clean_bytes = fh.read()
    lines = clean_bytes.splitlines()
    messy = tmp_path / "messy.jsonl"
    messy.write_bytes(b"\r\n  \n" + b"\r\n\r\n".join(lines) + b"\r\n\t\r\n")
    resaved = os.fspath(tmp_path / "resaved.jsonl")
    save(load(os.fspath(messy)), resaved)
    with open(resaved, "rb") as fh:
        assert fh.read() == clean_bytes


@pytest.mark.parametrize("line", ["[]", "3", "null", '"text"'])
@pytest.mark.parametrize("load, which", [(load, which) for load, _, which in _READERS])
def test_readers_refuse_a_line_that_is_not_an_object(tmp_path, load, which, line):
    clean = _saved_dataset_and_contexts(tmp_path)[which]
    with open(clean, "r", encoding="utf-8") as fh:
        first = fh.readline()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(first + "\n" + line + "\n" + first, encoding="utf-8")
    with pytest.raises(MalformedFileError, match=f"^{re.escape(os.fspath(bad))}:3: bad "):
        load(os.fspath(bad))


def test_read_records_refuses_a_file_of_blank_lines(tmp_path):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \r\n\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=r": no records$"):
        load_dataset(os.fspath(blank))
    with pytest.raises(InvalidInputError, match=r": no contexts$"):
        load_contexts(os.fspath(blank))
    with pytest.raises(InvalidInputError, match=r": no things$"):
        read_records(os.fspath(blank), "thing", dict)


def _grouped_files(tmp_path):
    """A grouped train file, where records share passages, and its contexts file.

    One record keeps its passage id but gets a longer text.  Returns the
    paths and that record's line index.
    """
    config = GeneratorConfig(
        n_train=40, n_dev=4, subjects=3, attributes=3, value_pool=8, mode=MODE_GROUPED,
        passages_per_topic=2,
    )
    dataset = generate_synthetic(config, seed=3)
    passages_by_id = {p.id: p for p in dataset.passages}
    table = dataset.table
    contexts = [
        build_context(
            score_passages(table.matrix[table.row_of[ex.passage.id]], table), ex.answers[0],
            passages_by_id, 2, i, ex.id, ex.question,
        )
        for i, ex in enumerate(dataset.train)
    ]
    contexts_path = os.fspath(tmp_path / "contexts.jsonl")
    save_contexts(contexts, contexts_path)

    train_path = tmp_path / "train.jsonl"
    save_dataset(dataset.train, os.fspath(train_path))
    lines = train_path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])["passage_id"]
    changed = next(i for i, line in enumerate(lines) if i and json.loads(line)["passage_id"] == first)
    record = json.loads(lines[changed])
    record["passage"] += " extra ."
    lines[changed] = json.dumps(record)
    train_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return os.fspath(train_path), contexts_path, changed


def _plain_load_dataset(path):
    """``load_dataset`` without interning: one Passage per record."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            passage = Passage.from_text(r["passage_id"], r["passage"])
            examples.append(Example.build(
                r["id"], r["question"], passage, r["answers"],
                char_span_to_token_span(passage, r["answer_starts"][0], r["answers"][0]),
                [char_span_to_token_span(passage, c["start"], c["text"]) for c in r["candidates"]],
            ))
    return examples


def _plain_load_contexts(path):
    """``load_contexts`` without interning: one Passage per context passage."""
    contexts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            passages = [
                ContextPassage(
                    Passage.from_text(p["id"], p["text"]), p["score"],
                    {SpanTarget(s, e) for s, e in p["gt"]},
                )
                for p in r["passages"]
            ]
            contexts.append(ContextSet(
                r["question_id"], r["question"], tokenize(r["question"])[0], passages, r["short"]
            ))
    return contexts


def _assert_interned(pairs):
    """Each (id, text) has one Passage, and each Passage one id array."""
    passages, arrays = {}, {}
    for passage, ids in pairs:
        assert passages.setdefault((passage.id, passage.text), passage) is passage
        assert arrays.setdefault(id(passage), ids) is ids
    assert len(passages) < len(pairs)  # some passage is shared


def test_records_with_one_passage_share_one_passage_and_one_id_array(tmp_path):
    train_path, contexts_path, changed = _grouped_files(tmp_path)
    examples = load_dataset(train_path)
    contexts = load_contexts(contexts_path)
    vocab = Vocabulary.from_examples(examples)
    encoded = encode_examples(examples, vocab)
    _assert_interned([(ex.passage, enc.passage_ids) for ex, enc in zip(examples, encoded)])
    _assert_interned([
        (p.passage, e.passage_ids)
        for ctx, enc in zip(contexts, encode_contexts(contexts, vocab))
        for p, e in zip(ctx.passages, enc.passages)
    ])
    # The same id with another text is a passage of its own.
    first, other = examples[0].passage, examples[changed].passage
    assert other.id == first.id and other is not first
    assert encoded[changed].passage_ids is not encoded[0].passage_ids


def test_an_interned_load_equals_a_plain_load_field_by_field(tmp_path):
    train_path, contexts_path, _ = _grouped_files(tmp_path)
    assert load_dataset(train_path) == _plain_load_dataset(train_path)
    assert load_contexts(contexts_path) == _plain_load_contexts(contexts_path)


# ---------------------------------------------------------------------------
# Synthetic generator


def test_generator_is_deterministic_and_seed_sensitive():
    config = GeneratorConfig(n_train=20, n_dev=5, subjects=6, attributes=3, value_pool=10)
    a = generate_synthetic(config, seed=1)
    b = generate_synthetic(config, seed=1)
    c = generate_synthetic(config, seed=2)
    assert [ex.passage.text for ex in a.train] == [ex.passage.text for ex in b.train]
    assert [ex.question for ex in a.train] == [ex.question for ex in b.train]
    assert [ex.passage.text for ex in a.train] != [ex.passage.text for ex in c.train]
    np.testing.assert_array_equal(a.table.matrix, b.table.matrix)


def test_twin_passages_hold_gold_and_twin_facts_of_one_attribute():
    config = GeneratorConfig(
        n_train=60, n_dev=1, subjects=8, attributes=4, value_pool=12, distractors=1
    )
    dataset = generate_synthetic(config, seed=5)
    gold_first = gold_second = 0
    for ex in dataset.train:
        sentences = ex.passage.text.count(".")
        assert sentences == 2  # gold + one twin
        attrs = {tok for tok in ex.passage.tokens if tok.startswith("prop")}
        assert len(attrs) == 1  # twins share the question's attribute
        assert len(ex.candidate_spans) == 2
        assert ex.gold_span in ex.candidate_spans
        covered = ex.passage.span_text(ex.gold_span.start, ex.gold_span.end)
        assert covered == ex.answers[0]
        if ex.gold_span == ex.candidate_spans[0]:
            gold_first += 1
        else:
            gold_second += 1
    # Sentence order is shuffled, so the gold fact lands on both sides.
    assert gold_first > 5 and gold_second > 5


def test_ambiguous_questions_omit_the_subject_at_the_configured_rate():
    config = GeneratorConfig(
        n_train=300, n_dev=1, subjects=10, attributes=4, value_pool=15,
        ambiguous_fraction=0.3,
    )
    dataset = generate_synthetic(config, seed=9)
    ambiguous = [ex for ex in dataset.train if ex.question.startswith("what is the")]
    for ex in ambiguous:
        assert not any(tok.startswith("ent") for tok in ex.question_tokens)
    rate = len(ambiguous) / len(dataset.train)
    assert 0.2 < rate < 0.4
    for ex in dataset.train:
        if ex not in ambiguous:
            assert any(tok.startswith("ent") for tok in ex.question_tokens)


def test_quoted_mode_wraps_values_in_quote_tokens():
    config = GeneratorConfig(
        n_train=10, n_dev=1, subjects=5, attributes=2, value_pool=8, mode=MODE_QUOTED
    )
    dataset = generate_synthetic(config, seed=2)
    for ex in dataset.train:
        assert ex.passage.tokens.count('"') == 4  # two quoted value pairs
        # The answer itself stays unquoted.
        assert '"' not in ex.answers[0]


def test_grouped_mode_repeats_every_fact_across_two_passages():
    config = GeneratorConfig(
        n_train=10, n_dev=1, subjects=4, attributes=5, value_pool=10,
        mode=MODE_GROUPED, passages_per_topic=3,
    )
    dataset = generate_synthetic(config, seed=7)
    by_subject = {}
    for passage in dataset.passages:
        subject = passage.tokens[0]
        by_subject.setdefault(subject, []).append(passage)
    assert len(by_subject) == 4
    for subject, group in by_subject.items():
        assert len(group) <= 3
        for a in range(5):
            holders = [p for p in group if f"prop{a}" in p.tokens]
            assert len(holders) == 2  # each fact is written twice
    for ex in dataset.train:
        assert len(annotate_gt(ex.passage, ex.answers[0])) >= 1
        assert ex.candidate_spans  # every occurrence is distant supervision


def test_generator_embedding_table_marks_the_subject():
    config = GeneratorConfig(n_train=15, n_dev=5, subjects=6, attributes=3, value_pool=9)
    dataset = generate_synthetic(config, seed=11)
    assert dataset.table.matrix.shape == (20, 6)
    # Rows align with train+dev passages and mark each example's gold subject,
    # recoverable as the token three left of the answer: "<subj> has <attr> <values>".
    for ex, row in zip(dataset.train + dataset.dev, dataset.table.matrix):
        subject_token = ex.passage.tokens[ex.gold_span.start - 3]
        assert int(np.argmax(row)) == int(subject_token.removeprefix("ent"))


def test_generator_value_pairs_are_unique_per_fact():
    config = GeneratorConfig(n_train=5, n_dev=1, subjects=7, attributes=4, value_pool=8)
    dataset = generate_synthetic(config, seed=13)
    answers = set()
    for ex in dataset.train + dataset.dev:
        answers.add(ex.answers[0])
    # 7 x 4 = 28 facts from an 8 x 8 = 64 pair pool: no collisions allowed.
    config_small = GeneratorConfig(n_train=1, n_dev=1, subjects=9, attributes=8, value_pool=8)
    with pytest.raises(ConfigError):
        generate_synthetic(config_small, seed=0)


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_train=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(ambiguous_fraction=1.5)
    with pytest.raises(ConfigError):
        GeneratorConfig(mode="chained")
    with pytest.raises(ConfigError):
        GeneratorConfig(distractors=30, subjects=30)
    with pytest.raises(ConfigError):
        GeneratorConfig(mode=MODE_GROUPED, passages_per_topic=1)


def test_generator_vocabulary_covers_every_token():
    config = GeneratorConfig(n_train=25, n_dev=10, subjects=5, attributes=3, value_pool=9)
    dataset = generate_synthetic(config, seed=17)
    vocab = dataset.vocabulary()
    for ex in dataset.train + dataset.dev:
        ids = vocab.encode(ex.passage.tokens)
        assert np.all(ids > 0)  # nothing falls back to <unk>
        ids = vocab.encode(ex.question_tokens)
        assert np.all(ids > 0)

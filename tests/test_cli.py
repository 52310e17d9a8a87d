"""End-to-end tests for the command-line pipeline.

Everything runs in-process through ``cli.main`` against a tiny corpus so the
whole file stays fast.  The heavyweight fixture (generate + train) is shared
at module scope; individual tests chain decode / eval / context / stats off
its outputs and check the error paths that ``main`` converts into JSON
records on stderr.
"""

import argparse
import dataclasses
import json
import os
import re

import pytest

from spanobj import cli, data, model


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _expect_error(capsys, argv, kind):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == kind
    assert record["message"]
    return record


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Generate a tiny corpus and train one compound checkpoint on it."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    runs = root / "runs"
    assert cli.main([
        "generate", "--out", str(corpus), "--seed", "3",
        "--n-train", "40", "--n-dev", "12", "--subjects", "6",
        "--attributes", "3", "--value-pool", "12",
    ]) == 0
    assert cli.main([
        "train", "--data", str(corpus), "--out", str(runs),
        "--objective", "compound", "--seeds", "0", "--epochs", "2",
        "--dim", "16", "--learning-rate", "3e-3",
    ]) == 0
    return {"root": root, "corpus": corpus, "runs": runs,
            "checkpoint": runs / "compound-seed0.ckpt"}


def test_generate_writes_train_dev_and_embeddings(pipeline):
    corpus = pipeline["corpus"]
    train = data.load_dataset(os.fspath(corpus / "train.jsonl"))
    dev = data.load_dataset(os.fspath(corpus / "dev.jsonl"))
    table = data.load_embeddings(os.fspath(corpus / "embeddings.txt"))
    assert len(train) == 40
    assert len(dev) == 12
    seen = {ex.passage.id for ex in train + dev}
    assert seen <= set(table.ids)
    for ex in train:
        assert ex.answers
        assert len(ex.candidate_spans) >= 2


def test_train_writes_checkpoint_and_log(pipeline):
    ckpt = model.load_checkpoint(os.fspath(pipeline["checkpoint"]))
    assert ckpt.objective == "compound"
    assert ckpt.epoch == 2
    assert ckpt.seed == 0
    assert ckpt.vocab is not None
    assert ckpt.extra["policy"] == "valid"
    log = _read_lines(pipeline["runs"] / "compound-seed0-log.json")[0]
    assert len(log) == 2
    assert log[1]["loss"] < log[0]["loss"]


def test_train_multiple_seeds_from_one_flag(pipeline, tmp_path):
    out = tmp_path / "multi"
    assert cli.main([
        "train", "--data", str(pipeline["corpus"]), "--out", str(out),
        "--objective", "independent", "--seeds", "0, 1", "--epochs", "1",
        "--dim", "16",
    ]) == 0
    assert (out / "independent-seed0.ckpt").exists()
    assert (out / "independent-seed1.ckpt").exists()
    a = model.load_checkpoint(os.fspath(out / "independent-seed0.ckpt"))
    b = model.load_checkpoint(os.fspath(out / "independent-seed1.ckpt"))
    assert not (a.params.emb == b.params.emb).all()


def test_decode_writes_ranked_predictions(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    assert cli.main([
        "decode", "--checkpoint", str(pipeline["checkpoint"]),
        "--data", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(preds), "--top-k", "5",
    ]) == 0
    records = _read_lines(preds)
    by_example = {}
    for record in records:
        by_example.setdefault(record["example_id"], []).append(record)
    assert len(by_example) == 12
    for rows in by_example.values():
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        assert len(rows) <= 5
        probs = [r["probability"] for r in rows]
        assert probs == sorted(probs, reverse=True)
        for r in rows:
            assert 0 <= r["start"] <= r["end"]
            assert r["text"]


def test_decode_is_deterministic(pipeline, tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    argv = [
        "decode", "--checkpoint", str(pipeline["checkpoint"]),
        "--data", str(pipeline["corpus"] / "dev.jsonl"), "--top-k", "3",
    ]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert _file_bytes(first) == _file_bytes(second)


def test_decode_reports_the_lists_shorter_than_top_k_on_stdout_only(pipeline, tmp_path, capsys):
    # No passage here has 1000 spans, so every example's list is short.
    preds = tmp_path / "preds.jsonl"
    argv = ["decode", "--checkpoint", str(pipeline["checkpoint"]),
            "--data", str(pipeline["corpus"] / "dev.jsonl"), "--out", str(preds)]
    assert cli.main(argv + ["--top-k", "1000"]) == 0
    records = _read_lines(preds)
    assert capsys.readouterr().out == (
        f"wrote {len(records)} predictions for 12 examples to {preds}; 12 short of top-1000\n"
    )
    # The file holds the records alone, each line canonical_json's bytes.
    keys = ["end", "example_id", "probability", "rank", "start", "text"]
    assert all(sorted(record) == keys for record in records)
    assert _file_bytes(preds) == "".join(data.canonical_json(r) + "\n" for r in records).encode()
    assert cli.main(argv + ["--top-k", "1"]) == 0
    assert capsys.readouterr().out.endswith("; 0 short of top-1\n")


def test_eval_scores_rank_one_predictions(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    report_path = tmp_path / "report.json"
    hist_path = tmp_path / "hist.csv"
    assert cli.main([
        "decode", "--checkpoint", str(pipeline["checkpoint"]),
        "--data", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(preds), "--top-k", "4",
    ]) == 0
    assert cli.main([
        "eval", "--predictions", str(preds),
        "--gold", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(report_path), "--hist-out", str(hist_path),
        "--top-k", "4",
    ]) == 0
    report = json.loads(_file_bytes(report_path))
    assert report["n"] == 12
    assert 0.0 <= report["em"] <= 100.0
    assert report["em"] <= report["f1"] <= 100.0
    hist = _file_bytes(hist_path).decode("utf-8").strip().splitlines()
    assert all(len(line.split(",")) == 2 for line in hist)


def _decoded(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    assert cli.main([
        "decode", "--checkpoint", str(pipeline["checkpoint"]),
        "--data", str(pipeline["corpus"] / "dev.jsonl"), "--out", str(preds), "--top-k", "3",
    ]) == 0
    return preds


def _eval(pipeline, preds, out):
    return cli.main([
        "eval", "--predictions", str(preds), "--gold", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(out / "report.json"), "--hist-out", str(out / "hist.csv"), "--top-k", "3",
    ])


def test_eval_reads_blank_lines_and_carriage_returns_as_the_clean_file(pipeline, tmp_path):
    preds = _decoded(pipeline, tmp_path)
    messy = tmp_path / "messy.jsonl"
    messy.write_bytes(b"\r\n" + b"\r\n \r\n".join(_file_bytes(preds).splitlines()) + b"\r\n\n")
    (tmp_path / "clean").mkdir()
    (tmp_path / "messy").mkdir()
    assert _eval(pipeline, preds, tmp_path / "clean") == 0
    assert _eval(pipeline, messy, tmp_path / "messy") == 0
    for name in ("report.json", "hist.csv"):
        assert _file_bytes(tmp_path / "messy" / name) == _file_bytes(tmp_path / "clean" / name)


@pytest.mark.parametrize("line", [b"[]", b"3", b"null"])
def test_eval_refuses_a_prediction_that_is_not_an_object(pipeline, tmp_path, capsys, line):
    preds = _decoded(pipeline, tmp_path)
    first, *rest = _file_bytes(preds).splitlines()
    preds.write_bytes(b"\n".join([first, line, *rest]) + b"\n")
    record = _expect_error(capsys, ["eval", "--predictions", str(preds), "--gold",
                                    str(pipeline["corpus"] / "dev.jsonl"),
                                    "--out", str(tmp_path / "report.json")], "MalformedFileError")
    assert record["message"].startswith(f"{preds}:2: bad prediction: ")
    assert not (tmp_path / "report.json").exists()


def test_context_builds_supervised_contexts(pipeline, tmp_path):
    out = tmp_path / "contexts.jsonl"
    assert cli.main([
        "context", "--data", str(pipeline["corpus"] / "train.jsonl"),
        "--embeddings", str(pipeline["corpus"] / "embeddings.txt"),
        "--out", str(out), "--context-size", "2", "--seed", "5",
    ]) == 0
    contexts = data.load_contexts(os.fspath(out))
    assert len(contexts) == 40
    for ctx in contexts:
        assert len(ctx.passages) <= 2
        assert any(cp.gt_spans for cp in ctx.passages)


def test_shared_normalization_training_from_contexts(pipeline, tmp_path):
    contexts = tmp_path / "contexts.jsonl"
    out = tmp_path / "shared"
    assert cli.main([
        "context", "--data", str(pipeline["corpus"] / "train.jsonl"),
        "--embeddings", str(pipeline["corpus"] / "embeddings.txt"),
        "--out", str(contexts), "--context-size", "2", "--seed", "5",
    ]) == 0
    assert cli.main([
        "train", "--data", str(pipeline["corpus"]), "--out", str(out),
        "--objective", "compound-shared", "--contexts", str(contexts),
        "--seeds", "0", "--epochs", "1", "--dim", "16",
    ]) == 0
    ckpt = model.load_checkpoint(os.fspath(out / "compound-shared-seed0.ckpt"))
    assert ckpt.objective == "compound-shared"
    assert ckpt.epoch == 1


def test_stats_reports_significance(pipeline, tmp_path, capsys):
    paths = []
    for label, values in [
        ("compound", [71.2, 69.8, 70.4, 72.1, 70.9]),
        ("independent", [66.0, 67.2, 65.1, 66.8, 67.5]),
    ]:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(
            {"label": label, "seeds": [1, 2, 3, 4, 5], "values": values}
        ))
        paths.append(str(path))
    out = tmp_path / "report.txt"
    assert cli.main([
        "stats", "--metrics", *paths,
        "--comparisons", "compound>independent", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "compound > independent" in printed
    assert "significant=yes" in printed
    assert _file_bytes(out).decode("utf-8").strip() in printed


def _stats_inputs(tmp_path):
    paths = []
    for label in ("compound", "independent"):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"label": label, "seeds": [1, 2], "values": [1.0, 2.0]}))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command, name", [
    ("generate", "embeddings.txt"),
    ("eval", "report.json"),
    ("eval", "hist.csv"),
    ("stats", "report.txt"),
])
def test_a_failed_cli_write_leaves_the_previous_file_whole(
    pipeline, tmp_path, capsys, monkeypatch, command, name
):
    """Every output is written beside its target and moved over it: when
    that move fails, the old file is whole and no temporary file is left."""
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "generate": ["generate", "--out", str(out), "--seed", "3", "--n-train", "4",
                     "--n-dev", "2", "--subjects", "2", "--attributes", "2", "--value-pool", "4"],
        "eval": ["eval", "--predictions", str(_decoded(pipeline, tmp_path)),
                 "--gold", str(pipeline["corpus"] / "dev.jsonl"), "--out", str(out / "report.json"),
                 "--hist-out", str(out / "hist.csv"), "--top-k", "3"],
        "stats": ["stats", "--metrics", *_stats_inputs(tmp_path),
                  "--comparisons", "compound>independent", "--out", str(out / "report.txt")],
    }[command]
    target = out / name
    target.write_bytes(b"old\n")
    replace = os.replace

    def failing_replace(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError(f"no space left writing {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    record = _expect_error(capsys, argv, "OSError")
    assert name in record["message"]
    assert target.read_bytes() == b"old\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_resume_training_matches_uninterrupted_run(pipeline, tmp_path):
    corpus = str(pipeline["corpus"])
    straight = tmp_path / "straight"
    resumed = tmp_path / "resumed"
    base = ["train", "--data", corpus, "--objective", "independent",
            "--seeds", "2", "--dim", "16", "--learning-rate", "3e-3"]
    assert cli.main(base + ["--out", str(straight), "--epochs", "3", "--log-dev"]) == 0
    assert cli.main(base + ["--out", str(resumed), "--epochs", "1", "--log-dev"]) == 0
    assert cli.main(base + ["--out", str(resumed), "--epochs", "3", "--resume", "--log-dev"]) == 0
    for name in ("independent-seed2.ckpt", "independent-seed2-log.json"):
        assert _file_bytes(straight / name) == _file_bytes(resumed / name), name
    assert [entry["epoch"] for entry in _read_lines(resumed / "independent-seed2-log.json")[0]] == [
        0, 1, 2]


def test_checkpoint_records_every_train_config_field_but_seed_and_epochs(pipeline):
    ckpt = model.load_checkpoint(os.fspath(pipeline["checkpoint"]))
    names = {spec.name for spec in dataclasses.fields(model.TrainConfig)}
    assert set(ckpt.extra) == names - {"seed", "epochs"}
    assert ckpt.extra["learning_rate"] == 3e-3 and ckpt.extra["dim"] == 16


def test_resume_refuses_a_missing_log_or_optimizer_state(pipeline, tmp_path, capsys):
    out = tmp_path / "runs"
    base = ["train", "--data", str(pipeline["corpus"]), "--out", str(out),
            "--objective", "independent", "--dim", "8", "--epochs", "1"]
    assert cli.main(base + ["--seeds", "0,1"]) == 0
    os.remove(out / "independent-seed1-log.json")
    before = {name: _file_bytes(out / name) for name in sorted(os.listdir(out))}
    capsys.readouterr()
    record = _expect_error(capsys, base + ["--seeds", "0,1", "--epochs", "2", "--resume"],
                           "InvalidInputError")
    assert "independent-seed1-log.json" in record["message"]
    assert {name: _file_bytes(out / name) for name in sorted(os.listdir(out))} == before

    # Fresh AdamW moments cannot continue the run the checkpoint came from.
    ckpt = model.load_checkpoint(os.fspath(out / "independent-seed0.ckpt"))
    model.save_checkpoint(os.fspath(out / "independent-seed0.ckpt"), ckpt.params,
                          objective=ckpt.objective, seed=0, epoch=ckpt.epoch,
                          vocab=ckpt.vocab, extra=ckpt.extra)
    record = _expect_error(capsys, base + ["--seeds", "0", "--epochs", "2", "--resume"],
                           "InvalidInputError")
    assert "optimizer state" in record["message"]


def test_resume_skips_finished_checkpoint(pipeline, tmp_path, capsys):
    out = tmp_path / "done"
    base = ["train", "--data", str(pipeline["corpus"]), "--out", str(out),
            "--objective", "independent", "--seeds", "0", "--epochs", "1",
            "--dim", "16"]
    assert cli.main(base) == 0
    before = _file_bytes(out / "independent-seed0.ckpt")
    capsys.readouterr()
    assert cli.main(base + ["--resume"]) == 0
    assert "skipping" in capsys.readouterr().out
    assert _file_bytes(out / "independent-seed0.ckpt") == before


@pytest.mark.parametrize("flags, field", [
    (["--dim", "4"], "dim"),
    (["--similarity", "additive"], "similarity"),
    (["--policy", "full"], "policy"),
    (["--learning-rate", "0.5"], "learning_rate"),
    (["--weight-decay", "0"], "weight_decay"),
    (["--batch-size", "5"], "batch_size"),
])
def test_resume_refuses_a_checkpoint_trained_otherwise(pipeline, tmp_path, capsys, flags, field):
    out = tmp_path / "runs"
    base = ["train", "--data", str(pipeline["corpus"]), "--out", str(out),
            "--objective", "independent", "--seeds", "0", "--dim", "8"]
    assert cli.main(base + ["--epochs", "1"]) == 0
    before = _file_bytes(out / "independent-seed0.ckpt")
    capsys.readouterr()
    # Flags given later win, so each case overrides one of the base options.
    record = _expect_error(capsys, base + ["--epochs", "2", "--resume"] + flags, "InvalidInputError")
    assert f"with {field} " in record["message"]
    assert _file_bytes(out / "independent-seed0.ckpt") == before


def test_resume_refuses_a_checkpoint_of_another_vocabulary(pipeline, tmp_path, capsys):
    other = tmp_path / "other"
    assert cli.main(["generate", "--out", str(other), "--seed", "4", "--n-train", "10",
                     "--n-dev", "2", "--subjects", "4", "--attributes", "2",
                     "--value-pool", "6"]) == 0
    out = tmp_path / "runs"
    base = ["--out", str(out), "--objective", "independent", "--seeds", "0", "--dim", "8"]
    assert cli.main(["train", "--data", str(pipeline["corpus"]), *base, "--epochs", "1"]) == 0
    capsys.readouterr()
    record = _expect_error(
        capsys, ["train", "--data", str(other), *base, "--epochs", "2", "--resume"],
        "InvalidInputError",
    )
    assert "vocabulary" in record["message"]


def test_resume_checks_every_seed_before_training_any(pipeline, tmp_path, capsys):
    out = tmp_path / "runs"
    base = ["train", "--data", str(pipeline["corpus"]), "--out", str(out),
            "--objective", "independent", "--dim", "8", "--epochs", "1"]
    assert cli.main(base + ["--seeds", "0", "--learning-rate", "3e-3"]) == 0
    assert cli.main(base + ["--seeds", "1", "--learning-rate", "1e-3"]) == 0
    before = {name: _file_bytes(out / name) for name in sorted(os.listdir(out))}
    capsys.readouterr()
    record = _expect_error(
        capsys, base + ["--seeds", "0,1", "--learning-rate", "3e-3", "--epochs", "2", "--resume"],
        "InvalidInputError",
    )
    assert "independent-seed1.ckpt" in record["message"]
    assert "learning_rate" in record["message"]
    assert {name: _file_bytes(out / name) for name in sorted(os.listdir(out))} == before


def test_config_file_fills_unset_options_but_flags_win(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"seed": 7, "n_train": 15, "n_dev": 5,
                                  "subjects": 5, "attributes": 2,
                                  "value_pool": 8}))
    from_config = tmp_path / "from_config"
    from_flags = tmp_path / "from_flags"
    other_seed = tmp_path / "other_seed"
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(from_config), "--seed", "3"]) == 0
    assert cli.main(["generate", "--out", str(from_flags), "--seed", "3",
                     "--n-train", "15", "--n-dev", "5", "--subjects", "5",
                     "--attributes", "2", "--value-pool", "8"]) == 0
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(other_seed)]) == 0
    for name in ("train.jsonl", "dev.jsonl", "embeddings.txt"):
        assert _file_bytes(from_config / name) == _file_bytes(from_flags / name)
    assert (_file_bytes(other_seed / "train.jsonl")
            != _file_bytes(from_config / "train.jsonl"))


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n_examples": 10}))
    record = _expect_error(capsys, [
        "generate", "--config", str(config), "--out", str(tmp_path / "out"),
    ], "ConfigError")
    assert "n_examples" in record["message"]


def test_config_file_rejects_malformed_json(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    _expect_error(capsys, [
        "generate", "--config", str(config), "--out", str(tmp_path / "out"),
    ], "ConfigError")


def test_config_file_must_hold_an_object(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2, 3]")
    _expect_error(capsys, [
        "generate", "--config", str(config), "--out", str(tmp_path / "out"),
    ], "ConfigError")


@pytest.mark.parametrize("argv, option", [
    (["decode", "--checkpoint", "c", "--data", "d", "--out", "o", "--filter", "bogus"], "--filter"),
    (["train", "--data", "d", "--out", "o", "--epochs", "abc"], "--epochs"),
    (["train", "--data", "d", "--out", "o", "--seeds", "1,x"], "seeds"),
    (["decode", "--checkpoint", "c", "--data", "d"], "--out"),
    ([], "command"),
])
def test_usage_errors_report_one_json_line_and_exit_1(capsys, argv, option):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert option in record["message"]


@pytest.mark.parametrize("command, overrides, option", [
    ("decode", {"zeta": "abc"}, "zeta"),
    ("decode", {"top_k": [20]}, "top_k"),
    ("train", {"epochs": "two"}, "epochs"),
    ("train", {"learning_rate": "fast"}, "learning_rate"),
    ("train", {"epochs": 2.7}, "epochs"),
    ("train", {"epochs": True}, "epochs"),
    ("train", {"learning_rate": True}, "learning_rate"),
    ("decode", {"top_k": 2.5}, "top_k"),
    ("train", {"seeds": [1.5]}, "seeds"),
])
def test_config_values_that_do_not_convert_are_config_errors(
    pipeline, tmp_path, capsys, command, overrides, option
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    argv = {
        "decode": ["decode", "--checkpoint", str(pipeline["checkpoint"]),
                   "--data", str(pipeline["corpus"] / "dev.jsonl")],
        "train": ["train", "--data", str(pipeline["corpus"])],
    }[command]
    out = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out), "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    (line,) = captured.err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert option in record["message"]
    assert not out.exists()


def test_log_dev_without_a_dev_set_is_a_config_error(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "train.jsonl").write_bytes(_file_bytes(pipeline["corpus"] / "train.jsonl"))
    out = tmp_path / "runs"
    rc = cli.main(["train", "--data", str(corpus), "--out", str(out),
                   "--epochs", "2", "--log-dev"])
    captured = capsys.readouterr()
    assert rc == 1
    (line,) = captured.err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert "dev.jsonl" in record["message"]
    assert not out.exists()


# Every flag each command's --help lists, and the value each option that is
# not required resolves to when neither a flag nor a config file gives it.
CLI_SURFACE = {
    "generate": (
        ["--ambiguous-fraction", "--attributes", "--config", "--distractors", "--help",
         "--mode", "--n-dev", "--n-train", "--out", "--passages-per-topic", "--seed",
         "--subjects", "--value-pool"],
        {"seed": 0, "n_train": 2000, "n_dev": 500, "subjects": 30, "attributes": 6,
         "value_pool": 40, "ambiguous_fraction": 0.3, "distractors": 1, "mode": "twin",
         "passages_per_topic": 4},
    ),
    "train": (
        ["--batch-size", "--beam", "--config", "--contexts", "--data",
         "--dim", "--epochs", "--help", "--learning-rate", "--log-dev", "--objective",
         "--out", "--policy", "--resume", "--seeds", "--similarity", "--weight-decay"],
        {"objective": "compound", "seeds": "0", "epochs": 10, "batch_size": 32,
         "learning_rate": 1e-3, "weight_decay": 0.01, "policy": "valid", "dim": 32,
         "similarity": "dot", "contexts": None, "beam": 10,
         "log_dev": False, "resume": False},
    ),
    "decode": (
        ["--beam", "--checkpoint", "--config", "--data", "--filter", "--help", "--out",
         "--surface-k", "--top-k", "--zeta"],
        {"filter": "lf+sf", "zeta": 30, "surface_k": 100, "top_k": 20, "beam": 10},
    ),
    "eval": (
        ["--config", "--gold", "--help", "--hist-out", "--out", "--predictions", "--top-k"],
        {"hist_out": None, "top_k": 20},
    ),
    "context": (
        ["--config", "--context-size", "--data", "--embeddings", "--help", "--out", "--seed"],
        {"context_size": 2, "seed": 0},
    ),
    "stats": (
        ["--comparisons", "--config", "--help", "--metrics", "--out"],
        {"out": None},
    ),
}


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_cli_surface_lists_every_flag_and_default(tmp_path, capsys, monkeypatch, command):
    flags, defaults = CLI_SURFACE[command]
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    shown = re.findall(r"^\s+(?:-h, )?(--[a-z][a-z-]*)", capsys.readouterr().out, re.M)
    assert sorted(shown) == flags

    # Required paths point at nothing, so each command stops at its first
    # read, after every option has been resolved; generate stops before
    # it builds the corpus.
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parsed.append(parse_args(self, *a, **k)) or parsed[-1])

    def stop(*args, **kwargs):
        raise OSError("stop")

    monkeypatch.setattr(data, "generate_synthetic", stop)
    missing = str(tmp_path / "missing")
    required = {
        "generate": {"out": missing},
        "train": {"data": missing, "out": missing},
        "decode": {"checkpoint": missing, "data": missing, "out": missing},
        "eval": {"predictions": missing, "gold": missing, "out": missing},
        "context": {"data": missing, "embeddings": missing, "out": missing},
        "stats": {"metrics": [missing, missing], "comparisons": "a>b"},
    }[command]
    argv = [command]
    for key, value in required.items():
        argv += [f"--{key}", *(value if isinstance(value, list) else [value])]
    assert cli.main(argv) == 1
    capsys.readouterr()
    resolved = {key: value for key, value in vars(parsed[-1]).items()
                if key not in required and key not in ("command", "config", "func")}
    assert resolved == defaults
    assert {k: type(v) for k, v in resolved.items()} == {k: type(v) for k, v in defaults.items()}


def test_train_rejects_a_seed_named_twice(pipeline, tmp_path, capsys):
    # Training seed 1 twice would write the same checkpoint twice.
    out = tmp_path / "runs"
    record = _expect_error(capsys, [
        "train", "--data", str(pipeline["corpus"]), "--out", str(out),
        "--objective", "independent", "--seeds", "1,0,1", "--epochs", "1",
    ], "ConfigError")
    assert record["message"] == "option 'seeds' names a seed twice: '1,0,1'"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "context"])
def test_negative_seeds_are_config_errors(pipeline, tmp_path, capsys, command):
    corpus = pipeline["corpus"]
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--seed=-1", "--n-train", "4", "--n-dev", "2"],
        "train": ["train", "--data", str(corpus), "--seeds=-1", "--epochs", "1"],
        "context": ["context", "--data", str(corpus / "train.jsonl"),
                    "--embeddings", str(corpus / "embeddings.txt"), "--seed=-3"],
    }[command]
    record = _expect_error(capsys, argv + ["--out", str(out)], "ConfigError")
    assert "seed" in record["message"]
    # The message names the seed given, not one derived from it.
    assert record["message"].endswith("got " + {"context": "-3"}.get(command, "-1"))
    assert not out.exists()


def test_context_rejects_a_passage_id_with_two_texts(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["generate", "--out", str(corpus), "--mode", "grouped", "--seed", "1",
                     "--n-train", "12", "--n-dev", "2", "--subjects", "4",
                     "--attributes", "2", "--value-pool", "6"]) == 0
    lines = (corpus / "train.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    ids = [r["passage_id"] for r in records]
    last = max(i for i, pid in enumerate(ids) if ids.count(pid) > 1)
    records[last]["passage"] += " ent00 has prop0 va00 vb00 ."
    lines[last] = json.dumps(records[last])
    (corpus / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "contexts.jsonl"
    record = _expect_error(capsys, [
        "context", "--data", str(corpus / "train.jsonl"),
        "--embeddings", str(corpus / "embeddings.txt"), "--out", str(out),
    ], "InvalidInputError")
    assert repr(ids[last]) in record["message"]
    assert not out.exists()


def test_required_options_can_come_from_the_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "corpus"
    config.write_text(json.dumps({"out": str(out), "seed": 3, "n_train": 4, "n_dev": 2}))
    assert cli.main(["generate", "--config", str(config)]) == 0
    assert len(data.load_dataset(os.fspath(out / "train.jsonl"))) == 4
    capsys.readouterr()
    # Neither a flag nor a config key: a ConfigError naming the option.
    config.write_text(json.dumps({"out": str(tmp_path / "report.json")}))
    rc = cli.main(["eval", "--predictions", "p.jsonl", "--config", str(config)])
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert rc == 1 and record["error"] == "ConfigError"
    assert "--gold" in record["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["decode", "--help"])
    assert exit_info.value.code == 0
    assert "--filter" in capsys.readouterr().out


def test_shared_objective_requires_contexts(pipeline, tmp_path, capsys):
    _expect_error(capsys, [
        "train", "--data", str(pipeline["corpus"]), "--out", str(tmp_path / "x"),
        "--objective", "compound-shared", "--seeds", "0", "--epochs", "1",
    ], "ConfigError")


def test_contexts_with_a_per_example_objective_is_a_config_error(pipeline, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = cli.main(["train", "--data", str(pipeline["corpus"]), "--out", str(out),
                   "--objective", "compound", "--contexts", str(tmp_path / "nonexistent.jsonl"),
                   "--epochs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    (line,) = captured.err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert "--contexts" in record["message"]
    assert not out.exists()


def test_eval_rejects_mismatched_example_ids(pipeline, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    assert cli.main([
        "decode", "--checkpoint", str(pipeline["checkpoint"]),
        "--data", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(preds), "--top-k", "1",
    ]) == 0
    _expect_error(capsys, [
        "eval", "--predictions", str(preds),
        "--gold", str(pipeline["corpus"] / "train.jsonl"),
        "--out", str(tmp_path / "report.json"),
    ], "InvalidInputError")


def test_missing_checkpoint_reports_os_error(pipeline, tmp_path, capsys):
    _expect_error(capsys, [
        "decode", "--checkpoint", str(tmp_path / "nope.ckpt"),
        "--data", str(pipeline["corpus"] / "dev.jsonl"),
        "--out", str(tmp_path / "preds.jsonl"),
    ], "OSError")


def test_stats_requires_two_metric_files(tmp_path, capsys):
    path = tmp_path / "only.json"
    path.write_text(json.dumps({"label": "a", "seeds": [1, 2],
                                "values": [1.0, 2.0]}))
    _expect_error(capsys, [
        "stats", "--metrics", str(path), "--comparisons", "a>b",
    ], "ConfigError")


def test_stats_rejects_mismatched_seed_sets(tmp_path, capsys):
    paths = []
    for label, seeds in [("a", [1, 2, 3]), ("b", [1, 2, 4])]:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"label": label, "seeds": seeds,
                                    "values": [1.0, 2.0, 3.0]}))
        paths.append(str(path))
    _expect_error(capsys, [
        "stats", "--metrics", *paths, "--comparisons", "a>b",
    ], "InvalidInputError")


def test_stats_rejects_a_file_whose_values_do_not_match_its_seeds(tmp_path, capsys):
    # Both files name the same two seeds, but the first holds three values:
    # pairing them by seed would compare a value that belongs to no seed.
    paths = []
    for label, values in [("a", [71.0, 72.0, 73.0]), ("b", [61.0, 62.0])]:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"label": label, "seeds": [1, 2], "values": values}))
        paths.append(str(path))
    out = tmp_path / "report.txt"
    record = _expect_error(capsys, [
        "stats", "--metrics", *paths, "--comparisons", "a>b", "--out", str(out),
    ], "InvalidInputError")
    assert record["message"] == f"{paths[0]} holds 3 values for 2 seeds"
    assert not out.exists()


def test_stats_rejects_malformed_comparison(tmp_path, capsys):
    paths = []
    for label in ("a", "b"):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"label": label, "seeds": [1, 2, 3],
                                    "values": [1.0, 2.0, 3.0]}))
        paths.append(str(path))
    _expect_error(capsys, [
        "stats", "--metrics", *paths, "--comparisons", "a-versus-b",
    ], "ConfigError")


def test_context_requires_known_passages(pipeline, tmp_path, capsys):
    table = data.load_embeddings(os.fspath(pipeline["corpus"] / "embeddings.txt"))
    truncated = data.EmbeddingTable(table.ids[:1], table.matrix[:1])
    short_path = tmp_path / "short.txt"
    data.save_embeddings(truncated, os.fspath(short_path))
    _expect_error(capsys, [
        "context", "--data", str(pipeline["corpus"] / "train.jsonl"),
        "--embeddings", str(short_path), "--out", str(tmp_path / "ctx.jsonl"),
    ], "InvalidInputError")


def _corrupt_checkpoint_header(pipeline, tmp_path):
    bad = tmp_path / "bad.ckpt"
    magic = _file_bytes(pipeline["checkpoint"]).split(b"\n", 1)[0]
    bad.write_bytes(magic + b"\n{\"blocks\": [truncated\n")
    argv = ["decode", "--checkpoint", str(bad),
            "--data", str(pipeline["corpus"] / "dev.jsonl"), "--out", str(tmp_path / "p.jsonl")]
    return argv, f"{bad}:2"


def _record_without_answer_starts(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    lines = (pipeline["corpus"] / "train.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    del record["answer_starts"]
    lines[1] = json.dumps(record)
    (corpus / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["train", "--data", str(corpus), "--out", str(tmp_path / "runs"), "--epochs", "1"]
    return argv, f"{corpus / 'train.jsonl'}:2"


def _context_without_passages(pipeline, tmp_path):
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text(json.dumps({"question_id": "q0", "question": "who?"}) + "\n")
    argv = ["train", "--data", str(pipeline["corpus"]), "--out", str(tmp_path / "runs"),
            "--objective", "compound-shared", "--contexts", str(contexts), "--epochs", "1"]
    return argv, f"{contexts}:1"


def _context_with_empty_passages(pipeline, tmp_path):
    contexts = tmp_path / "contexts.jsonl"
    record = {"question_id": "q0", "question": "who?", "passages": [], "short": False}
    contexts.write_text(json.dumps(record) + "\n")
    argv = ["train", "--data", str(pipeline["corpus"]), "--out", str(tmp_path / "runs"),
            "--objective", "compound-shared", "--contexts", str(contexts), "--epochs", "1"]
    return argv, f"{contexts}:1"


def _context_with_gold_span_out_of_range(pipeline, tmp_path):
    contexts = tmp_path / "contexts.jsonl"
    passage = {"id": "p0", "text": "ent00 has prop0 va01 vb02 .", "score": 1.0, "gt": [[3, 4]]}
    good = {"question_id": "q0", "question": "who?", "passages": [passage], "short": False}
    bad = dict(good, passages=[dict(passage, gt=[[0, 999]])])
    contexts.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    argv = ["train", "--data", str(pipeline["corpus"]), "--out", str(tmp_path / "runs"),
            "--objective", "compound-shared", "--contexts", str(contexts), "--epochs", "1"]
    return argv, f"{contexts}:2: bad context"


def _embeddings_with_bad_header(pipeline, tmp_path):
    table = tmp_path / "embeddings.txt"
    table.write_text("a b\n")
    argv = ["context", "--data", str(pipeline["corpus"] / "train.jsonl"),
            "--embeddings", str(table), "--out", str(tmp_path / "ctx.jsonl")]
    return argv, f"{table}:1"


def _metric_files(tmp_path, first):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(first)
    paths[1].write_text(json.dumps({"label": "b", "seeds": [1, 2], "values": [1.0, 2.0]}))
    return ["stats", "--metrics", *map(str, paths), "--comparisons", "a>b"], paths[0]


def _metric_file_not_json(pipeline, tmp_path):
    argv, path = _metric_files(tmp_path, '{"label": "a",\n "seeds": [1, 2\n')
    return argv, f"{path}:3"


def _metric_values_not_numbers(pipeline, tmp_path):
    argv, path = _metric_files(
        tmp_path, json.dumps({"label": "a", "seeds": [1, 2], "values": ["x", 1.0]})
    )
    return argv, f"{path}:1"


def _prediction_without_rank(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    record = {"example_id": "dev-0000", "rank": 1, "text": "x"}
    preds.write_text(json.dumps(record) + "\n" + json.dumps({"example_id": "dev-0000"}) + "\n")
    argv = ["eval", "--predictions", str(preds), "--gold", str(pipeline["corpus"] / "dev.jsonl"),
            "--out", str(tmp_path / "report.json")]
    return argv, f"{preds}:2"


@pytest.mark.parametrize("make_input", [
    _corrupt_checkpoint_header, _record_without_answer_starts, _context_without_passages,
    _context_with_empty_passages, _context_with_gold_span_out_of_range,
    _embeddings_with_bad_header, _metric_file_not_json,
    _metric_values_not_numbers, _prediction_without_rank,
])
def test_malformed_files_report_one_json_line_naming_file_and_line(
    pipeline, tmp_path, capsys, make_input
):
    argv, where = make_input(pipeline, tmp_path)
    rc = cli.main(argv)
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err_lines) == 1
    record = json.loads(err_lines[0])
    assert record["error"] == "MalformedFileError"
    assert record["message"].startswith(where + ": ")

import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import statelens.cli
import statelens.detector
import statelens.gcn_core
from statelens.cli import main
from statelens.corpus import load_corpus, split_items
from statelens.feature_extract import label_set_from_rules
from statelens.graph_pipeline import (
    build_contract_graph,
    build_vocabulary,
    load_vocabulary,
    optimize_graph,
)

from helpers import nested_ast_json

METRIC_FIELDS = {"acc", "recall", "precision", "f1", "fpr", "tp", "fp", "tn", "fn"}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--pairs", "12", "--seed", "11", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir) -> dict:
    out = tmp_path_factory.mktemp("model")
    model, vocab = out / "model.sgm", out / "vocab.json"
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(model),
            "--vocab",
            str(vocab),
            "--epochs",
            "40",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    return {"model": model, "vocab": vocab, "corpus": corpus_dir}


def test_gen_writes_manifest_and_fixtures(corpus_dir, capsys):
    manifest = corpus_dir / "manifest.jsonl"
    assert manifest.exists()
    lines = manifest.read_text().strip().splitlines()
    assert len(lines) == 24  # 2 * pairs
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"ast_path", "label"}


def test_gen_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--pairs", "3", "--seed", "2", "--out", str(a)]) == 0
    assert main(["gen", "--pairs", "3", "--seed", "2", "--out", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_gen_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["gen", "--pairs", "1", "--seed", "1", "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert "file.txt" in err


def test_train_prints_metrics_json(trained, capsys, corpus_dir, tmp_path):
    model2, vocab2 = tmp_path / "m.sgm", tmp_path / "v.json"
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(model2),
            "--vocab",
            str(vocab2),
            "--epochs",
            "40",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    metrics = json.loads(out)
    assert set(metrics) == METRIC_FIELDS
    # determinism: same flags, bit-identical artifacts
    assert model2.read_bytes() == trained["model"].read_bytes()
    assert vocab2.read_bytes() == trained["vocab"].read_bytes()


def test_train_vocabulary_has_no_test_leakage(trained):
    """Recompute the vocabulary from the training split alone and compare
    fingerprints with what the CLI persisted."""
    contracts = load_corpus(trained["corpus"] / "manifest.jsonl")
    label_set = label_set_from_rules()
    pruned = [
        (c, optimize_graph(build_contract_graph(c.tree), label_set)) for c in contracts
    ]
    labels = [c.label for c, _ in pruned]
    train_pairs, _ = split_items(pruned, labels, 0.9, seed=5)
    recomputed = build_vocabulary([g.tuples for _, g in train_pairs], dim=64, seed=5)
    persisted = load_vocabulary(trained["vocab"])
    assert persisted.fingerprint() == recomputed.fingerprint()


def test_train_degenerate_corpus_exits_three(tmp_path, corpus_dir):
    records = [
        json.loads(line)
        for line in (corpus_dir / "manifest.jsonl").read_text().splitlines()
    ]
    defective_only = [r for r in records if r["label"] == "defective"]
    manifest = tmp_path / "degenerate.jsonl"
    manifest.write_text(
        "\n".join(
            json.dumps({"ast_path": str(corpus_dir / r["ast_path"]), "label": r["label"]})
            for r in defective_only
        )
    )
    code = main(
        [
            "train",
            "--manifest",
            str(manifest),
            "--model",
            str(tmp_path / "m.sgm"),
            "--vocab",
            str(tmp_path / "v.json"),
            "--epochs",
            "1",
        ]
    )
    assert code == 3


def test_train_kfold_reports_folds(tmp_path, corpus_dir, capsys):
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(tmp_path / "m.sgm"),
            "--vocab",
            str(tmp_path / "v.json"),
            "--epochs",
            "5",
            "--folds",
            "3",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["folds"]) == 3
    assert "mean_acc" in out


def test_detect_defective_fixture_exit_one(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0000_defective.ast.json"
    code = main(
        ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(target)]
    )
    out = capsys.readouterr().out.strip()
    report = json.loads(out)
    assert code == 1
    assert report["verdict"] == "defective"
    assert len(report["top_nodes"]) >= 1
    assert report["contract"] == str(target)


def test_detect_clean_fixture_exit_zero(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0000_clean.ast.json"
    code = main(
        ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(target)]
    )
    report = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert report["verdict"] == "clean"


def test_detect_jsonl_output_parses(trained, corpus_dir, capsys):
    targets = [str(corpus_dir / f"pair000{i}_clean.ast.json") for i in range(3)]
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), *targets])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert {"contract", "verdict", "probability", "top_nodes", "model_fingerprint", "timestamp"} <= set(record)


def test_detect_text_format(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0001_defective.ast.json"
    main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--format",
            "text",
            str(target),
        ]
    )
    out = capsys.readouterr().out
    assert "verdict:" in out and "suspect nodes" in out


def test_detect_out_dir_writes_reports(trained, corpus_dir, tmp_path):
    target = corpus_dir / "pair0002_defective.ast.json"
    reports = tmp_path / "reports"
    code = main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--out-dir",
            str(reports),
            str(target),
        ]
    )
    assert code == 1
    written = list(reports.glob("*.report.json"))
    assert len(written) == 1
    assert json.loads(written[0].read_text())["verdict"] == "defective"


def test_detect_threshold_above_one_exit_two(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0003_defective.ast.json"
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "detect",
                "--model",
                str(trained["model"]),
                "--vocab",
                str(trained["vocab"]),
                "--threshold",
                "1.01",
                str(target),
            ]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threshold" in captured.err


@pytest.mark.parametrize("command", ["detect", "eval"])
@pytest.mark.parametrize("value", ["7", "-0.1", "nan"])
def test_threshold_outside_unit_interval_rejected(trained, corpus_dir, capsys, command, value):
    target = (
        ["--manifest", str(corpus_dir / "manifest.jsonl")]
        if command == "eval"
        else [str(corpus_dir / "pair0003_clean.ast.json")]
    )
    argv = [command, "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threshold", value, *target])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_threshold_bounds_are_inclusive(trained, corpus_dir):
    target = str(corpus_dir / "pair0003_clean.ast.json")
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, "--threshold", "0", target]) == 1  # every probability is >= 0
    assert main([*argv, "--threshold", "1", target]) in (0, 1)


@pytest.mark.parametrize(
    "command,option,value,named",
    [
        ("gen", "--pairs", "0", "--pairs"),
        ("train", "--seed", "-1", "--seed"),  # numpy's generators take no negative seed
        ("train", "--epochs", "0", "--epochs"),
        ("train", "--hidden", "0", "--hidden"),
        ("train", "--dim", "0", "--dim"),
        ("train", "--lr", "0", "--lr"),
        ("train", "--lr", "nan", "--lr"),
        ("train", "--lr", "inf", "--lr"),
        ("train", "--l2", "-1", "--l2"),
        ("train", "--l2", "inf", "--l2"),
        ("train", "--folds", "1", "--folds"),
        ("train", "--folds", "25", "too-small"),  # 24 usable contracts
        ("detect", "--top-k", "-1", "--top-k"),
    ],
)
def test_out_of_range_numeric_option_is_a_usage_error(
    trained, corpus_dir, tmp_path, capsys, command, option, value, named
):
    model, vocab, out = tmp_path / "m.sgm", tmp_path / "v.json", tmp_path / "gen"
    rest = {
        "gen": ["--out", str(out)],
        "train": ["--manifest", str(corpus_dir / "manifest.jsonl"), "--model", str(model), "--vocab", str(vocab)],
        "detect": ["--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(corpus_dir / "pair0000_clean.ast.json")],
    }[command]
    try:
        code = main([command, option, value, *rest])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "internal-error" not in captured.err
    assert not model.exists() and not vocab.exists() and not out.exists()


def test_detect_missing_model_exit_two(trained, corpus_dir, capsys):
    code = main(
        [
            "detect",
            "--model",
            "/nonexistent/model.sgm",
            "--vocab",
            str(trained["vocab"]),
            str(corpus_dir / "pair0000_clean.ast.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "/nonexistent/model.sgm" in err


def test_detect_vocab_mismatch_exit_two(trained, corpus_dir, tmp_path, capsys):
    other_vocab = tmp_path / "other_vocab.json"
    contracts = load_corpus(trained["corpus"] / "manifest.jsonl")
    label_set = label_set_from_rules()
    graphs = [optimize_graph(build_contract_graph(c.tree), label_set) for c in contracts[:2]]
    from statelens.graph_pipeline import save_vocabulary

    save_vocabulary(other_vocab, build_vocabulary([g.tuples for g in graphs], dim=64, seed=999))
    code = main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(other_vocab),
            str(corpus_dir / "pair0000_clean.ast.json"),
        ]
    )
    assert code == 2
    assert "vocab" in capsys.readouterr().err


def test_detect_unparseable_input_exit_two(trained, tmp_path, capsys):
    bad = tmp_path / "bad.ast.json"
    bad.write_text("{}")
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(bad)])
    assert code == 2
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["path"] == str(bad)


def test_detect_too_deep_ast_does_not_stop_the_batch(trained, corpus_dir, tmp_path, capsys):
    deep = tmp_path / "deep.ast.json"
    deep.write_text(nested_ast_json(1500))
    valid = corpus_dir / "pair0000_clean.ast.json"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    code = main([*argv, str(deep), str(valid)])
    assert code == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(deep) and diagnostic["code"] == "SchemaViolationError"
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(valid)]


def test_detect_600_level_ast_gives_one_report(trained, tmp_path, capsys):
    deep = tmp_path / "deep600.ast.json"
    deep.write_text(nested_ast_json(600))
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(deep)])
    assert code in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(deep)]


def test_detect_hashes_the_model_once_per_call(trained, corpus_dir, capsys, monkeypatch):
    original = statelens.detector.GcnModel.fingerprint
    hashed = []

    def counting(model):
        hashed.append(model)
        return original(model)

    monkeypatch.setattr(statelens.detector.GcnModel, "fingerprint", counting)
    paths = [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))[:3]]
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, *paths]) in (0, 1)
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["contract"] for r in reports] == paths
    assert len(hashed) == 1
    assert {r["model_fingerprint"] for r in reports} == {original(hashed[0])}


def test_unexpected_exception_is_one_diagnostic_exit_two(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(statelens.cli, "synth_generate", explode)
    code = main(["gen", "--pairs", "1", "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "internal-error" and "RuntimeError: boom" in diagnostic["message"]
    assert diagnostic["where"].startswith("test_cli.py:")


def test_eval_full_manifest(trained, corpus_dir, capsys):
    code = main(
        [
            "eval",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
        ]
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(metrics) == METRIC_FIELDS
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 24


def test_inspect_reports_stats(corpus_dir, capsys, fixture_dir):
    code = main(
        [
            "inspect",
            str(corpus_dir / "pair0000_defective.ast.json"),
            str(fixture_dir / "unguarded_transfer.ast.json"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        stats = json.loads(line)
        assert {"path", "ast_nodes", "graph_nodes", "edges", "categories", "edge_types"} <= set(stats)
        assert stats["graph_nodes"] > 0


def test_detect_output_matches_shipped_schema(trained, corpus_dir, capsys):
    import jsonschema

    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "report.schema.json").read_text()
    )
    targets = [
        str(corpus_dir / "pair0004_defective.ast.json"),
        str(corpus_dir / "pair0004_clean.ast.json"),
    ]
    main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), *targets])
    for line in capsys.readouterr().out.strip().splitlines():
        jsonschema.validate(json.loads(line), schema)


def test_inspect_with_custom_rules(corpus_dir, tmp_path, capsys):
    rules = tmp_path / "only_functions.rules"
    rules.write_text("FunctionDefinition -> Function\n")
    target = str(corpus_dir / "pair0000_defective.ast.json")
    assert main(["inspect", "--rules", str(rules), target]) == 0
    narrowed = json.loads(capsys.readouterr().out.strip())
    assert main(["inspect", target]) == 0
    full = json.loads(capsys.readouterr().out.strip())
    assert set(narrowed["categories"]) == {"Function"}
    assert narrowed["graph_nodes"] < full["graph_nodes"]


def test_exit_code_two_on_library_errors(tmp_path, capsys):
    code = main(
        [
            "train",
            "--manifest",
            str(tmp_path / "missing.jsonl"),
            "--model",
            str(tmp_path / "m"),
            "--vocab",
            str(tmp_path / "v"),
        ]
    )
    assert code == 2
    assert "missing.jsonl" in capsys.readouterr().err


def _single_error_line(err: str) -> dict:
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    diagnostic = json.loads(lines[0])
    assert diagnostic["level"] == "error"
    return diagnostic


def _model_header(blob: bytes, dim: int, hidden: int) -> bytes:
    return blob[:4] + struct.pack("<II", dim, hidden) + blob[12:]


MODEL_CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "header-only": lambda blob: blob[:10],
    "trailing-byte": lambda blob: blob + b"\x00",
    "dim-zero": lambda blob: _model_header(blob, 0, 32),
    "hidden-zero": lambda blob: _model_header(blob, 64, 0),
}


@pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
def test_detect_corrupt_model_exit_two(trained, corpus_dir, tmp_path, capsys, corruption):
    bad = tmp_path / "bad.sgm"
    bad.write_bytes(MODEL_CORRUPTIONS[corruption](trained["model"].read_bytes()))
    target = str(corpus_dir / "pair0000_clean.ast.json")
    code = main(["detect", "--model", str(bad), "--vocab", str(trained["vocab"]), target])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["code"] == "SchemaViolationError"


VOCAB_CORRUPTIONS = {
    "malformed-json": lambda text: text[: len(text) // 2],
    "not-utf8": lambda text: "\udcff",
    "list-root": lambda text: "[]",
    "missing-key": lambda text: json.dumps({"word2idx": json.loads(text)["word2idx"]}),
    "wrong-type": lambda text: json.dumps({**json.loads(text), "word2idx": [1, 2]}),
    "flat-embedding": lambda text: json.dumps({**json.loads(text), "embedding": [0.5, 0.5]}),
    "index-out-of-range": lambda text: json.dumps({**json.loads(text), "word2idx": {"x": 10**6}}),
}


@pytest.mark.parametrize("corruption", sorted(VOCAB_CORRUPTIONS))
def test_detect_corrupt_vocab_exit_two(trained, corpus_dir, tmp_path, capsys, corruption):
    bad = tmp_path / "bad_vocab.json"
    text = VOCAB_CORRUPTIONS[corruption](trained["vocab"].read_text(encoding="utf-8"))
    bad.write_bytes(text.encode("utf-8", errors="surrogateescape"))
    target = str(corpus_dir / "pair0000_clean.ast.json")
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(bad), target])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["code"] == "SchemaViolationError"


def test_log_records_are_json_lines(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "INFO")
    model, vocab = tmp_path / "m.sgm", tmp_path / "v.json"
    manifest = str(corpus_dir / "manifest.jsonl")
    argv = ["train", "--manifest", manifest, "--model", str(model), "--vocab", str(vocab)]
    assert main([*argv, "--epochs", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    written = [r for r in records if r["message"].startswith("model written to")]
    assert len(written) == 1
    assert written[0]["level"] == "info" and written[0]["logger"] == "statelens"
    assert str(model) in written[0]["message"] and str(vocab) in written[0]["message"]


def _non_utf8_file(tmp_path) -> Path:
    bad = tmp_path / "bad.ast.json"
    bad.write_bytes(b'\xff\xfe{"id": 1, "nodeType": "SourceUnit"}')
    return bad


def test_detect_non_utf8_file_does_not_stop_the_batch(trained, corpus_dir, tmp_path, capsys):
    bad, valid = _non_utf8_file(tmp_path), corpus_dir / "pair0000_clean.ast.json"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, str(bad), str(valid)]) == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert "byte 0" in diagnostic["message"]
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(valid)]


def test_inspect_non_utf8_file_does_not_stop_the_batch(corpus_dir, tmp_path, capsys):
    bad, valid = _non_utf8_file(tmp_path), corpus_dir / "pair0000_clean.ast.json"
    assert main(["inspect", str(bad), str(valid)]) == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert [json.loads(line)["path"] for line in captured.out.strip().splitlines()] == [str(valid)]


def test_train_non_utf8_ast_names_the_manifest_line(corpus_dir, tmp_path, capsys):
    bad = _non_utf8_file(tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    records = [
        {"ast_path": str(corpus_dir / "pair0000_clean.ast.json"), "label": "clean"},
        {"ast_path": str(bad), "label": "defective"},
    ]
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    argv = ["train", "--manifest", str(manifest), "--model", str(tmp_path / "m.sgm")]
    assert main([*argv, "--vocab", str(tmp_path / "v.json"), "--epochs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "MalformedJsonError"
    assert f"{manifest}:2:" in diagnostic["message"] and "byte 0" in diagnostic["message"]


@pytest.mark.parametrize("command", ["inspect", "detect", "train"])
def test_non_utf8_rules_file_is_one_diagnostic_naming_it(trained, corpus_dir, tmp_path, capsys, command):
    rules = tmp_path / "bad.rules"
    rules.write_bytes(b"\xff\xfeFunctionDefinition -> Function\n")
    target = str(corpus_dir / "pair0000_defective.ast.json")
    model, vocab = tmp_path / "m.sgm", tmp_path / "v.json"
    rest = {
        "inspect": [target],
        "detect": ["--model", str(trained["model"]), "--vocab", str(trained["vocab"]), target],
        "train": ["--manifest", str(corpus_dir / "manifest.jsonl"), "--model", str(model), "--vocab", str(vocab)],
    }[command]
    assert main([command, "--rules", str(rules), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError"
    assert str(rules) in diagnostic["message"] and "byte 0" in diagnostic["message"]
    assert not model.exists() and not vocab.exists()


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_model_and_vocab_width_mismatch_caught_at_load(
    trained, corpus_dir, tmp_path, capsys, monkeypatch, command
):
    narrow = tmp_path / "dim32.sgm"
    statelens.detector.GcnModel(statelens.gcn_core.init_params(32, 8, seed=0)).save(narrow)

    def never(*args, **kwargs):
        raise AssertionError("no input may be read after a width mismatch")

    monkeypatch.setattr(statelens.cli, "parse_ast_json", never)
    monkeypatch.setattr(statelens.cli, "load_corpus", never)
    argv = [command, "--model", str(narrow), "--vocab", str(trained["vocab"])]
    if command == "detect":
        argv += [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))[:3]]
    else:
        argv += ["--manifest", str(corpus_dir / "manifest.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "shape-mismatch"
    assert "32" in diagnostic["message"] and "64" in diagnostic["message"]


def _train_argv(corpus_dir, tmp_path, *extra) -> list[str]:
    manifest = str(corpus_dir / "manifest.jsonl")
    model, vocab = str(tmp_path / "m.sgm"), str(tmp_path / "v.json")
    return ["train", "--manifest", manifest, "--model", model, "--vocab", vocab, *extra]


def _epoch_records(err: str) -> list[dict]:
    records = [json.loads(line) for line in err.strip().splitlines()]
    return [r for r in records if "epoch" in r]


def test_train_logs_one_record_per_epoch(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "info")
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "3")) == 0
    captured = capsys.readouterr()
    epochs = _epoch_records(captured.err)
    assert [r["epoch"] for r in epochs] == [1, 2, 3]
    assert all(r["level"] == "info" and r["logger"] == "statelens" for r in epochs)
    assert all(isinstance(r["train_loss"], float) for r in epochs)
    assert epochs[-1]["held_out"] == json.loads(captured.out.strip().splitlines()[-1])


def test_train_logs_epochs_per_fold(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "info")
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "2", "--folds", "3")) == 0
    captured = capsys.readouterr()
    epochs = _epoch_records(captured.err)
    assert [(r["fold"], r["epoch"]) for r in epochs] == [(f, e) for f in (1, 2, 3) for e in (1, 2)]
    folds = json.loads(captured.out.strip().splitlines()[-1])["folds"]
    assert [r["held_out"] for r in epochs if r["epoch"] == 2] == folds


def test_train_logs_no_epochs_at_the_default_level(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STATELENS_LOG", raising=False)
    built = []
    original = statelens.cli.det.EpochStats.to_json_dict
    monkeypatch.setattr(
        statelens.cli.det.EpochStats, "to_json_dict", lambda self: built.append(self) or original(self)
    )
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "3")) == 0
    assert capsys.readouterr().err == ""
    assert built == []


@pytest.mark.parametrize("extra", [[], ["--folds", "3"]], ids=["split", "folds"])
def test_diverging_train_is_one_diagnostic_and_writes_nothing(corpus_dir, tmp_path, extra):
    """A learning rate that overflows the weights ends `train` with one
    `diverged` diagnostic and exit 2. Run in a fresh interpreter, where a
    numpy warning would print to stderr as it does for a user."""
    argv = _train_argv(corpus_dir, tmp_path, "--lr", "1e300", "--epochs", "2", *extra)
    run = subprocess.run(
        [sys.executable, "-m", "statelens.cli", *argv], capture_output=True, text=True, check=False
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert _single_error_line(run.stderr)["code"] == "diverged"
    assert not (tmp_path / "m.sgm").exists() and not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("weight", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_model_with_a_non_finite_weight_is_refused(
    trained, corpus_dir, tmp_path, capsys, command, weight
):
    model = statelens.detector.GcnModel.load(trained["model"])
    model.params.flat[5] = weight
    bad = tmp_path / "bad.sgm"
    model.save(bad)
    argv = [command, "--model", str(bad), "--vocab", str(trained["vocab"])]
    if command == "detect":
        argv.append(str(corpus_dir / "pair0000_defective.ast.json"))
    else:
        argv += ["--manifest", str(corpus_dir / "manifest.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError"
    assert "not finite" in diagnostic["message"]

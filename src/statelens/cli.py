"""Command line interface: gen, train, detect, eval, inspect.

Exit codes: 0 success (and no defects for `detect`), 1 at least one
defective contract (`detect` only), 2 operational error (bad paths,
unreadable input, mismatched model/vocabulary, or any unexpected exception,
reported as one `internal-error` diagnostic; a training run that diverges,
reported as one `diverged` diagnostic, writes nothing), 3 degenerate
training corpus. Diagnostics go to stderr as JSON lines; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import traceback
from pathlib import Path
from typing import Sequence

from . import detector as det
from .ast_ingest import parse_ast_json, read_document
from .corpus import LabeledContract, kfold_indices, load_corpus, split_items, synth_generate
from .errors import (
    DegenerateCorpusError,
    EmptyGraphError,
    StateLensError,
    TrainingDivergedError,
)
from .feature_extract import RuleTable, default_rules, label_set_from_rules, load_rules
from .gcn_core import TrainConfig
from .graph_pipeline import (
    ContractGraph,
    Vocabulary,
    build_contract_graph,
    build_vocabulary,
    embed_nodes,
    load_vocabulary,
    normalize,
    optimize_graph,
    save_vocabulary,
)

log = logging.getLogger("statelens")


def _diagnostic(**fields) -> None:
    print(json.dumps({"level": "error", **fields}), file=sys.stderr)


class _JsonLineFormatter(logging.Formatter):
    """Renders a log record as one JSON object, like `_diagnostic` lines.
    A record logged with `extra={"fields": {...}}` carries those fields too."""

    def format(self, record: logging.LogRecord) -> str:
        fields = {"level": record.levelname.lower(), "logger": record.name}
        extra = getattr(record, "fields", {})
        return json.dumps({**fields, "message": record.getMessage(), **extra})


def _configure_logging() -> None:
    """Send `statelens` log records to the current stderr as JSON lines, at
    the level named by STATELENS_LOG (default WARNING)."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    log.handlers[:] = [handler]
    log.setLevel(os.environ.get("STATELENS_LOG", "WARNING").upper())
    log.propagate = False


def _ranged(convert, ok, wording: str):
    """An argparse type: `convert` the text, then reject a value that fails
    `ok` (nan fails every comparison) with a usage error naming the range."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {wording}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_probability = _ranged(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_positive_int = _ranged(int, lambda v: v >= 1, "be an integer >= 1")
_nonnegative_int = _ranged(int, lambda v: v >= 0, "be an integer >= 0")
_positive_float = _ranged(float, lambda v: 0.0 < v < math.inf, "be finite and > 0")
_nonnegative_float = _ranged(float, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
_fold_count = _ranged(int, lambda v: v == 0 or v >= 2, "be 0 (one split) or an integer >= 2")


def _load_rule_table(path: str | None) -> RuleTable:
    return default_rules() if path is None else RuleTable(load_rules(path))


def _prune_contracts(contracts: Sequence[LabeledContract], rules) -> list[ContractGraph]:
    """Build and prune one labeled graph per contract; empty graphs are
    skipped with a diagnostic rather than failing the whole run."""
    label_set = label_set_from_rules(rules)
    kept: list[ContractGraph] = []
    for contract in contracts:
        try:
            graph = optimize_graph(build_contract_graph(contract.tree, rules), label_set)
        except EmptyGraphError as exc:
            _diagnostic(path=contract.path, code="empty-graph", message=str(exc))
            continue
        graph.label = contract.label
        kept.append(graph)
    return kept


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    try:
        synth_generate(args.pairs, seed=args.seed, out_dir=out_dir)
    except OSError as exc:
        _diagnostic(path=str(out_dir), code="io-error", message=str(exc))
        return 2
    print(out_dir / "manifest.jsonl")
    return 0


def _train_once(
    train: Sequence[ContractGraph], test: Sequence[ContractGraph], config: TrainConfig, dim: int
):
    """Vocabulary from the training side only, then embed, normalize, train."""
    vocab = build_vocabulary([g.tuples for g in train], dim=dim, seed=config.seed)

    def finish(graphs):
        return [normalize(embed_nodes(graph, vocab)) for graph in graphs]

    model, history = det.train(
        finish(train), finish(test), config, vocab_fingerprint=vocab.fingerprint()
    )
    return model, history, vocab


def _log_epochs(history: Sequence[det.EpochStats], **context) -> None:
    """One INFO record per epoch: loss and held-out metrics (the training curve)."""
    if not log.isEnabledFor(logging.INFO):
        return
    for stats in history:
        log.info("epoch %d", stats.epoch, extra={"fields": {**context, **stats.to_json_dict()}})


def cmd_train(args) -> int:
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        hidden_width=args.hidden,
        l2_penalty=args.l2,
        optimizer=args.optimizer,
    )
    rules = _load_rule_table(args.rules)
    contracts = load_corpus(args.manifest)
    pruned = _prune_contracts(contracts, rules)
    if len(pruned) < max(2, args.folds):
        _diagnostic(code="too-small", message=f"only {len(pruned)} usable contracts")
        return 2
    try:
        if args.folds:
            fold_metrics = []
            folds = kfold_indices(len(pruned), args.folds, config.seed)
            for fold, (train_idx, test_idx) in enumerate(folds, 1):
                train = [pruned[i] for i in train_idx]
                test = [pruned[i] for i in test_idx]
                _, history, _ = _train_once(train, test, config, args.dim)
                _log_epochs(history, fold=fold)
                fold_metrics.append(history[-1].held_out)
            out = {
                "folds": [m.to_json_dict() for m in fold_metrics],
                "mean_acc": sum(m.acc for m in fold_metrics if m.acc is not None)
                / len(fold_metrics),
            }
            print(json.dumps(out, sort_keys=True))
            return 0
        train, test = split_items(pruned, [g.label for g in pruned], 0.9, config.seed)
        model, history, vocab = _train_once(train, test, config, args.dim)
        _log_epochs(history)
    except DegenerateCorpusError as exc:
        _diagnostic(code="degenerate-corpus", message=str(exc))
        return 3
    except TrainingDivergedError as exc:  # nothing is written
        _diagnostic(code="diverged", message=str(exc))
        return 2
    model.save(args.model)
    save_vocabulary(args.vocab, vocab)
    log.info("model written to %s, vocabulary to %s", args.model, args.vocab)
    print(json.dumps(history[-1].held_out.to_json_dict(), sort_keys=True))
    return 0


def _load_model_and_vocab(args) -> tuple[det.GcnModel, Vocabulary] | None:
    for path in (args.model, args.vocab):
        if not Path(path).exists():
            _diagnostic(path=str(path), code="missing-file", message=f"not found: {path}")
            return None
    model = det.GcnModel.load(args.model)
    vocab = load_vocabulary(args.vocab)
    if model.vocab_fingerprint and model.vocab_fingerprint != vocab.fingerprint():
        _diagnostic(
            code="vocab-mismatch",
            message="model was trained against a different vocabulary file",
        )
        return None
    if model.dim != vocab.dim:
        _diagnostic(
            code="shape-mismatch",
            message=f"model expects {model.dim}-wide embeddings, vocabulary has {vocab.dim}",
        )
        return None
    return model, vocab


def cmd_detect(args) -> int:
    loaded = _load_model_and_vocab(args)
    if loaded is None:
        return 2
    model, vocab = loaded
    rules = _load_rule_table(args.rules)
    label_set = label_set_from_rules(rules)
    fingerprint = model.fingerprint()
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    any_defective = False
    any_failure = False
    for path in args.paths:
        try:
            tree = parse_ast_json(read_document(path), source_unit=str(path))
            graph = optimize_graph(build_contract_graph(tree, rules), label_set)
            normalized = normalize(embed_nodes(graph, vocab))
            report = det.build_report(
                model,
                normalized,
                contract=str(path),
                threshold=args.threshold,
                k=args.top_k,
                model_fingerprint=fingerprint,
            )
        except OSError as exc:
            _diagnostic(path=str(path), code="io-error", message=str(exc))
            any_failure = True
            continue
        except StateLensError as exc:
            _diagnostic(path=str(path), code=type(exc).__name__, message=str(exc))
            any_failure = True
            continue
        any_defective = any_defective or report.verdict == "defective"
        rendered = (
            json.dumps(report.to_json_dict(), sort_keys=True)
            if args.format == "json"
            else report.to_text() + "\n"
        )
        if out_dir is not None:
            (out_dir / (Path(path).stem + ".report.json")).write_text(
                json.dumps(report.to_json_dict(), sort_keys=True, indent=2), "utf-8"
            )
        else:
            print(rendered)
    if any_failure:
        return 2
    return 1 if any_defective else 0


def cmd_eval(args) -> int:
    loaded = _load_model_and_vocab(args)
    if loaded is None:
        return 2
    model, vocab = loaded
    rules = _load_rule_table(args.rules)
    contracts = load_corpus(args.manifest)
    graphs = [normalize(embed_nodes(graph, vocab)) for graph in _prune_contracts(contracts, rules)]
    if not graphs:
        _diagnostic(code="empty-test-set", message="no usable contracts in manifest")
        return 2
    metrics = det.evaluate(model, graphs, threshold=args.threshold)
    print(json.dumps(metrics.to_json_dict(), sort_keys=True))
    return 0


def cmd_inspect(args) -> int:
    rules = _load_rule_table(args.rules)
    label_set = label_set_from_rules(rules)
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    failures = 0
    for path in args.paths:
        try:
            tree = parse_ast_json(read_document(path), source_unit=str(path))
            raw = build_contract_graph(tree, rules)
            graph = optimize_graph(raw, label_set)
        except OSError as exc:
            _diagnostic(path=str(path), code="io-error", message=str(exc))
            failures += 1
            continue
        except StateLensError as exc:
            _diagnostic(path=str(path), code=type(exc).__name__, message=str(exc))
            failures += 1
            continue
        categories: dict[str, int] = {}
        for t in graph.tuples:
            categories[t.category.value] = categories.get(t.category.value, 0) + 1
        edge_types: dict[str, int] = {}
        for e in graph.edges:
            edge_types[e.e_t.value] = edge_types.get(e.e_t.value, 0) + 1
        stats = {
            "path": str(path),
            "ast_nodes": len(tree),
            "graph_nodes": graph.n,
            "pruned_away": raw.n - graph.n,
            "edges": len(graph.edges),
            "categories": categories,
            "edge_types": edge_types,
        }
        if vocab is not None:
            from .graph_pipeline import token_for

            known = sum(1 for t in graph.tuples if token_for(t) in vocab.word2idx)
            stats["vocab_coverage"] = known / graph.n
        print(json.dumps(stats, sort_keys=True))
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statelens",
        description="Detect unguarded state changes in smart contracts from compiler AST JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    p_gen.add_argument("--pairs", type=_positive_int, required=True, help="number of minimal pairs")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a detector from a labeled manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--model", required=True, help="output model path")
    p_train.add_argument("--vocab", required=True, help="output vocabulary path")
    p_train.add_argument("--seed", type=_nonnegative_int, default=42)
    p_train.add_argument("--epochs", type=_positive_int, default=100)
    p_train.add_argument("--lr", type=_positive_float, default=1e-3)
    p_train.add_argument("--hidden", type=_positive_int, default=32)
    p_train.add_argument("--dim", type=_positive_int, default=64)
    p_train.add_argument("--l2", type=_nonnegative_float, default=5e-4)
    p_train.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p_train.add_argument("--rules", default=None, help="custom classification rules file")
    p_train.add_argument("--folds", type=_fold_count, default=0, help="k-fold cross-validation instead of a single split")
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", help="classify contracts and emit reports")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--vocab", required=True)
    p_detect.add_argument("--threshold", type=_probability, default=0.5)
    p_detect.add_argument("--top-k", type=_nonnegative_int, default=5)
    p_detect.add_argument("--format", choices=("json", "text"), default="json")
    p_detect.add_argument("--out-dir", default=None, help="write per-file reports here")
    p_detect.add_argument("--rules", default=None)
    p_detect.add_argument("paths", nargs="+", help="AST JSON files")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="score a model against a labeled manifest")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--vocab", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--threshold", type=_probability, default=0.5)
    p_eval.add_argument("--rules", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="dump graph statistics for AST files")
    p_inspect.add_argument("--rules", default=None)
    p_inspect.add_argument("--vocab", default=None)
    p_inspect.add_argument("paths", nargs="+")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StateLensError as exc:
        _diagnostic(code=type(exc).__name__, message=str(exc))
        return 2
    except OSError as exc:
        _diagnostic(code="io-error", message=str(exc))
        return 2
    except Exception as exc:  # never a traceback, and never exit 1 (defects found)
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        _diagnostic(
            code="internal-error",
            message=f"{type(exc).__name__}: {exc}",
            where=f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}",
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: gen, train, detect, eval, inspect.

Exit codes: 0 success (and no defects for `detect`), 1 at least one
defective contract (`detect` only), 2 operational error, 3 degenerate
training corpus. Results go to stdout. Every fault is rendered by
`_diagnostic` as one JSON line on stderr: a StateLensError with its own code,
path and exit code (the CLI's own refusals raise one with `code=`), an
OSError as `io-error` naming the file, and anything else as `internal-error`
with exit 2, never a traceback. A refused or diverging `train` writes nothing.

Every command that reads AST files (`detect`, `inspect`, and `train` and
`eval` through a manifest) treats them alike: a file that cannot be opened,
is not UTF-8, is not a valid AST, or yields no graph gets one diagnostic
naming it, and the command goes on with the next file. It exits 2 at the end
(over `detect`'s 1); `train` still writes its model and vocabulary and prints
its metrics, `eval` its metrics, decided over the files that went through.
Any other fault, a bad manifest line included, is fatal: one diagnostic.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import detector as det
from .ast_ingest import parse_ast_json, read_document
from .corpus import kfold_indices, load_corpus, split_items, synth_generate
from .errors import StateLensError
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
T = TypeVar("T")


def _diagnostic(exc: Exception, path: str | None = None) -> int:
    """Write `exc` to stderr as one JSON line and return its exit code. A
    StateLensError gives its own code, path (else `path`) and exit code; an
    OSError is an `io-error` naming `path`, else its file; anything else is an
    `internal-error` naming where it was raised."""
    message, status, where = str(exc), 2, None
    if isinstance(exc, StateLensError):
        path, code, status = exc.path or path, exc.code or type(exc).__name__, exc.exit_code
    elif isinstance(exc, OSError):
        path, code = path or exc.filename, "io-error"
    else:  # never a traceback, and never exit 1 (defects found)
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        code, message = "internal-error", f"{type(exc).__name__}: {exc}"
        where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
    fields = {"path": path, "code": code, "message": message, "where": where}
    line = {"level": "error", **{key: str(value) for key, value in fields.items() if value is not None}}
    print(json.dumps(line), file=sys.stderr)
    return status


class _JsonLineFormatter(logging.Formatter):
    """Renders a log record as one JSON object, like `_diagnostic` lines.
    A record logged with `extra={"fields": {...}}` carries those fields too."""

    def format(self, record: logging.LogRecord) -> str:
        fields = {"level": record.levelname.lower(), "logger": record.name}
        extra = getattr(record, "fields", {})
        return json.dumps({**fields, "message": record.getMessage(), **extra})


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _configure_logging() -> None:
    """Send `statelens` log records to the current stderr as JSON lines, at
    the level STATELENS_LOG names in any case (unset or empty: WARNING).
    Any other value is refused as `bad-log-level`."""
    raw = os.environ.get("STATELENS_LOG", "")
    level = raw.strip().upper() or "WARNING"
    if level not in _LOG_LEVELS:
        message = f"STATELENS_LOG must be one of {', '.join(_LOG_LEVELS)} (any case), got {raw!r}"
        raise StateLensError(message, code="bad-log-level")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    log.handlers[:] = [handler]
    log.setLevel(level)
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


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector; resume it only if it ran before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _each_file(paths: Iterable[str], work: Callable[[str], T]) -> Iterator[T | None]:
    """`work(path)` for each path in turn, yielded as soon as it returns. A
    file that fails with OSError or StateLensError yields None after one
    diagnostic naming it, and the next file goes on. The collector is paused
    per file, not per call: a large file builds some 20k acyclic containers
    that die by reference count, while a failed file leaves a cycle
    (traceback, frames, document text) that must not live on."""
    for path in paths:
        try:
            with _collector_paused():
                result = work(path)
        except (OSError, StateLensError) as exc:
            _diagnostic(exc, path)
            result = None
        yield result


def _graph_of(path: str, rules: RuleTable, label_set) -> ContractGraph:
    """One AST file, read, built and pruned."""
    tree = parse_ast_json(read_document(path), source_unit=str(path))
    return optimize_graph(build_contract_graph(tree, rules), label_set)


def _labeled_graphs(args) -> tuple[list[ContractGraph], int]:
    """The labeled graph of each manifest record whose file went through, and
    the number of records whose file failed."""
    rules = _load_rule_table(args.rules)
    label_set = label_set_from_rules(rules)
    records = load_corpus(args.manifest)
    files = _each_file([path for path, _ in records], lambda path: _graph_of(path, rules, label_set))
    graphs = []
    for (_, label), graph in zip(records, files):
        if graph is not None:
            graph.label = label
            graphs.append(graph)
    return graphs, len(records) - len(graphs)


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    synth_generate(args.pairs, seed=args.seed, out_dir=out_dir)
    print(out_dir / "manifest.jsonl")
    return 0


def _train_once(train: Sequence[ContractGraph], test: Sequence[ContractGraph], config: TrainConfig):
    """Vocabulary from the training side only, then embed, normalize, train."""
    vocab = build_vocabulary([g.tuples for g in train])

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
    )
    pruned, failed = _labeled_graphs(args)
    if len(pruned) < max(2, args.folds):
        raise StateLensError(f"only {len(pruned)} usable contracts", code="too-small")
    if args.folds:
        fold_metrics = []
        folds = kfold_indices(len(pruned), args.folds, config.seed)
        for fold, (train_idx, test_idx) in enumerate(folds, 1):
            train = [pruned[i] for i in train_idx]
            test = [pruned[i] for i in test_idx]
            _, history, _ = _train_once(train, test, config)
            _log_epochs(history, fold=fold)
            fold_metrics.append(history[-1].held_out)
        out = {
            "folds": [m.to_json_dict() for m in fold_metrics],
            "mean_acc": sum(m.acc for m in fold_metrics if m.acc is not None) / len(fold_metrics),
        }
        print(json.dumps(out, sort_keys=True))
        return 2 if failed else 0
    train, test = split_items(pruned, [g.label for g in pruned], config.seed)
    model, history, vocab = _train_once(train, test, config)
    _log_epochs(history)
    model.save(args.model)
    save_vocabulary(args.vocab, vocab)
    log.info("model written to %s, vocabulary to %s", args.model, args.vocab)
    print(json.dumps(history[-1].held_out.to_json_dict(), sort_keys=True))
    return 2 if failed else 0


def _load_model_and_vocab(args) -> tuple[det.GcnModel, Vocabulary]:
    model = det.GcnModel.load(args.model)
    vocab = load_vocabulary(args.vocab)
    if model.vocab_fingerprint and model.vocab_fingerprint != vocab.fingerprint():
        raise StateLensError("model was trained against a different vocabulary file", code="vocab-mismatch")
    if model.params.dim != vocab.dim:
        message = f"model expects {model.params.dim}-wide features, vocabulary gives {vocab.dim}"
        raise StateLensError(message, code="shape-mismatch")
    return model, vocab


def _report_name(path: str) -> str:
    return Path(path).stem + ".report.json"


def cmd_detect(args) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:  # refuse before any input is read or report written
        names = Counter(map(_report_name, args.paths))
        if clashing := [p for p in args.paths if names[_report_name(p)] > 1]:
            message = "inputs would overwrite each other's report: " + ", ".join(clashing)
            raise StateLensError(message, code="report-name-collision", path=str(out_dir))
    model, vocab = _load_model_and_vocab(args)
    rules = _load_rule_table(args.rules)
    label_set = label_set_from_rules(rules)
    fingerprint = model.fingerprint()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def detect_one(path: str) -> det.DetectionReport:
        normalized = normalize(embed_nodes(_graph_of(path, rules, label_set), vocab))
        return det.build_report(model, normalized, contract=str(path), threshold=args.threshold,
                                k=args.top_k, model_fingerprint=fingerprint)

    any_defective = False
    any_failure = False
    for path, report in zip(args.paths, _each_file(args.paths, detect_one)):
        if report is None:
            any_failure = True
            continue
        any_defective = any_defective or report.verdict == "defective"
        if out_dir is not None:
            (out_dir / _report_name(path)).write_text(
                json.dumps(report.to_json_dict(), sort_keys=True, indent=2), "utf-8"
            )
        elif args.format == "json":
            print(json.dumps(report.to_json_dict(), sort_keys=True))
        else:
            print(report.to_text() + "\n")
    if any_failure:
        return 2
    return 1 if any_defective else 0


def cmd_eval(args) -> int:
    model, vocab = _load_model_and_vocab(args)
    pruned, failed = _labeled_graphs(args)
    graphs = [normalize(embed_nodes(graph, vocab)) for graph in pruned]
    if not graphs:
        raise StateLensError("no usable contracts in manifest", code="empty-test-set")
    metrics = det.evaluate(model, graphs, threshold=args.threshold)
    print(json.dumps(metrics.to_json_dict(), sort_keys=True))
    return 2 if failed else 0


def cmd_inspect(args) -> int:
    rules = _load_rule_table(args.rules)
    label_set = label_set_from_rules(rules)
    vocab = load_vocabulary(args.vocab) if args.vocab else None

    def inspect_one(path: str) -> dict:
        tree = parse_ast_json(read_document(path), source_unit=str(path))
        raw = build_contract_graph(tree, rules)
        graph = optimize_graph(raw, label_set)
        stats = {
            "path": str(path),
            "ast_nodes": len(tree),
            "graph_nodes": graph.n,
            "pruned_away": raw.n - graph.n,
            "edges": len(graph.edges),
            "categories": Counter(t.category.value for t in graph.tuples),
            "edge_types": Counter(e.e_t.value for e in graph.edges),
        }
        if vocab is not None:
            known = sum(1 for t in graph.tuples if t.token in vocab.word2idx)
            stats["vocab_coverage"] = known / graph.n
        return stats

    failed = False
    for stats in _each_file(args.paths, inspect_one):
        if stats is None:
            failed = True
        else:
            print(json.dumps(stats, sort_keys=True))
    return 2 if failed else 0


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

    defaults = TrainConfig()
    p_train = sub.add_parser("train", help="train a detector from a labeled manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--model", required=True, help="output model path")
    p_train.add_argument("--vocab", required=True, help="output vocabulary path")
    p_train.add_argument("--seed", type=_nonnegative_int, default=defaults.seed)
    p_train.add_argument("--epochs", type=_positive_int, default=defaults.epochs)
    p_train.add_argument("--lr", type=_positive_float, default=defaults.learning_rate)
    p_train.add_argument("--hidden", type=_positive_int, default=defaults.hidden_width)
    p_train.add_argument("--l2", type=_nonnegative_float, default=defaults.l2_penalty)
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
    try:
        _configure_logging()  # before parsing: a bad level runs no command
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        return _diagnostic(exc)


if __name__ == "__main__":
    sys.exit(main())

"""Out-of-process layer tracing: spans recorded around each layer's calls.

`Tracer.install` replaces module attributes with timing wrappers. Each
wrapper records one span (name, start, end, parent span, contract id, and
the sizes its arguments and result show). Wrapping happens at the name the
caller looks up: `statelens.cli` binds `parse_ast_json` at import time, so
it is the `statelens.cli` attribute that gets wrapped, not the
`statelens.ast_ingest` one. `summarize` turns spans into per-layer metrics.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import statelens.cli
import statelens.corpus
import statelens.detector
import statelens.graph_pipeline
from statelens.ast_ingest import AstTree
from statelens.feature_extract import EdgeType
from statelens.graph_pipeline import token_for

EDGE_TYPES = [t.value for t in EdgeType]

# Span layer names, used by `summarize`.
MAIN = "cli.main"
PARSE = "ast_ingest.parse_ast_json"
TUPLES = "feature_extract.extract_node_tuples"
EDGES = "feature_extract.extract_edges"
BUILD = "graph_pipeline.build_graph"
PRUNE = "graph_pipeline.optimize_graph"
EMBED = "graph_pipeline.embed_nodes"
NORMALIZE = "graph_pipeline.normalize"
LOAD_CORPUS = "corpus.load_corpus"
TRAIN = "detector.train"
EVALUATE = "detector.evaluate"
REPORT = "detector.build_report"
FORWARD = "gcn_core.forward"
LOSS = "gcn_core.loss_and_grads"
STEP = "gcn_core.optimizer_step"
TRAINING = {LOAD_CORPUS, TRAIN, EVALUATE, LOSS, STEP}


def _forward_flops(args, result) -> dict:
    """Multiply-adds x2 of the two S @ H @ W layers and the readout."""
    params, graph = args[0], args[1]
    n, d, h = graph.n, params.dim, params.hidden
    return {"flops": 2 * (n * n * d + n * d * h + n * n * h + n * h * h + h * 2)}


def _edge_counts(args, result) -> dict:
    counts = Counter(e.e_t.value for e in result)
    return {f"edges.{t}": counts.get(t, 0) for t in EDGE_TYPES}


def _unk_count(args, result) -> dict:
    word2idx = args[1].word2idx
    return {"nodes": result.n, "unk": sum(token_for(t) not in word2idx for t in result.tuples)}


# (module, attribute, span name, sizes(args, result) -> dict or None)
TARGETS = [
    (statelens.cli, "main", MAIN, lambda a, r: {"command": a[0][0]}),
    (statelens.cli, "parse_ast_json", PARSE, lambda a, r: {"ast_nodes": len(r)}),
    (statelens.corpus, "parse_ast_json", PARSE, lambda a, r: {"ast_nodes": len(r)}),
    (statelens.graph_pipeline, "extract_node_tuples", TUPLES, lambda a, r: {"categorized": len(r)}),
    (statelens.graph_pipeline, "extract_edges", EDGES, _edge_counts),
    (statelens.graph_pipeline, "build_graph", BUILD, lambda a, r: {"nodes": r.n}),
    (statelens.cli, "optimize_graph", PRUNE, lambda a, r: {"nodes_in": a[0].n, "nodes_out": r.n}),
    (statelens.cli, "embed_nodes", EMBED, _unk_count),
    (statelens.cli, "normalize", NORMALIZE, lambda a, r: {"dense_bytes": r.s_hat.nbytes + r.a_hat.nbytes}),
    (statelens.cli, "load_corpus", LOAD_CORPUS, lambda a, r: {"contracts": len(r)}),
    (statelens.detector, "train", TRAIN, None),
    (statelens.detector, "evaluate", EVALUATE, None),
    (statelens.detector, "build_report", REPORT, None),
    (statelens.detector, "forward", FORWARD, _forward_flops),
    (statelens.detector, "loss_and_grads", LOSS, None),
    (statelens.detector, "optimizer_step", STEP, None),
]


def _contract_of(args, kwargs) -> str | None:
    if "source_unit" in kwargs:
        return kwargs["source_unit"]
    if "contract" in kwargs:
        return kwargs["contract"]
    if args and isinstance(args[0], AstTree):
        return args[0].source_unit
    return None


class Tracer:
    """Holds spans in memory while installed; `write` saves them as JSON lines.

    A span is [name, start_ns, end_ns, parent index or -1, contract, sizes].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, sizes):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            contract = _contract_of(args, kwargs)
            if contract is None and parent >= 0:
                contract = spans[parent][4]
            index = len(spans)
            span = [name, 0, 0, parent, contract, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if sizes is not None:
                span[5] = sizes(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, sizes in TARGETS:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, sizes))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, contract, sizes in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
                record["contract"] = contract
                record["sizes"] = sizes or {}
                out.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics; a layer the workload never called reads 0.

    When the spans hold `detect` calls, every layer outside training is
    summarized over those calls only, so a workload that also trains
    reports the front-end and inference of what it audits, not a blend
    with the small contracts `train` loads.
    """
    own = self_times_ns(spans)
    command: list[str] = []
    for s in spans:  # a parent span always precedes its children
        command.append(command[s["parent"]] if s["parent"] >= 0 else s["sizes"].get("command", ""))
    audited = "detect" in command
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s["name"] in TRAINING or not audited or command[i] == "detect":
            by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def mean_self_us(name):
        idx = by_name.get(name, ())
        return sum(own[i] for i in idx) / len(idx) / 1e3 if idx else 0.0

    def mean_total_s(name):
        idx = by_name.get(name, ())
        return sum(spans[i]["end_ns"] - spans[i]["start_ns"] for i in idx) / len(idx) / 1e9 if idx else 0.0

    def total(name, key):
        return sum(spans[i]["sizes"].get(key, 0) for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    parse_self_s = sum(own[i] for i in by_name.get(PARSE, ())) / 1e9
    reports = set(by_name.get(REPORT, ()))
    forwards_in_reports = sum(1 for i in by_name.get(FORWARD, ()) if spans[i]["parent"] in reports)
    trains = set(by_name.get(TRAIN, ()))
    epochs = sum(1 for i in by_name.get(EVALUATE, ()) if spans[i]["parent"] in trains)
    train_s = sum(spans[i]["end_ns"] - spans[i]["start_ns"] for i in by_name.get(TRAIN, ())) / 1e9

    metrics = {
        "ast_ingest.parse_us": mean_self_us(PARSE),
        "ast_ingest.nodes_per_s": ratio(total(PARSE, "ast_nodes"), parse_self_s),
        "ast_ingest.ast_nodes": ratio(total(PARSE, "ast_nodes"), calls(PARSE)),
        "feature_extract.tuples_us": mean_self_us(TUPLES),
        "feature_extract.edges_us": mean_self_us(EDGES),
        "feature_extract.categorized_ratio": ratio(total(TUPLES, "categorized"), total(PARSE, "ast_nodes")),
    }
    for t in EDGE_TYPES:
        metrics[f"feature_extract.edges.{t}"] = ratio(total(EDGES, f"edges.{t}"), calls(EDGES))
    metrics.update({
        "graph_pipeline.build_us": mean_self_us(BUILD),
        "graph_pipeline.prune_us": mean_self_us(PRUNE),
        "graph_pipeline.embed_us": mean_self_us(EMBED),
        "graph_pipeline.normalize_us": mean_self_us(NORMALIZE),
        "graph_pipeline.dense_bytes": ratio(total(NORMALIZE, "dense_bytes"), calls(NORMALIZE)),
        "graph_pipeline.pruned_ratio": ratio(
            total(PRUNE, "nodes_in") - total(PRUNE, "nodes_out"), total(PRUNE, "nodes_in")
        ),
        "graph_pipeline.unk_ratio": ratio(total(EMBED, "unk"), total(EMBED, "nodes")),
        "gcn_core.forward_us": mean_self_us(FORWARD),
        "gcn_core.flops": ratio(total(FORWARD, "flops"), calls(FORWARD)),
        "gcn_core.forward_calls_per_report": ratio(forwards_in_reports, len(reports)),
        "gcn_core.loss_and_grads_us": mean_self_us(LOSS),
        "gcn_core.optimizer_step_us": mean_self_us(STEP),
        "detector.train_epoch_s": ratio(train_s, epochs),
        "detector.evaluate_s": mean_total_s(EVALUATE),
        "detector.build_report_self_us": mean_self_us(REPORT),
        "corpus.load_corpus_s": mean_total_s(LOAD_CORPUS),
        "cli.main_self_ms": mean_self_us(MAIN) / 1e3,
    })
    return metrics

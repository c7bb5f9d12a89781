"""Training, prediction, the five evaluation metrics, and defect reports."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import (
    BadLabelError,
    DegenerateCorpusError,
    EmptyCorpusError,
    EmptyTestSetError,
    TrainingDivergedError,
)
from .gcn_core import (
    DEFECTIVE,
    ForwardTrace,
    GcnParams,
    OptimizerState,
    TrainConfig,
    forward,
    init_params,
    loss_and_grads,
    optimizer_step,
    params_from_bytes,
    params_to_bytes,
)
from .graph_pipeline import NormalizedGraph

MAX_REPORT_NODES = 10


@dataclass
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    acc: float | None
    recall: float | None
    precision: float | None
    f1: float | None
    fpr: float | None

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        def ratio(num: int, den: int) -> float | None:
            return num / den if den else None

        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        if precision is None or recall is None or precision + recall == 0:
            f1 = None
        else:
            f1 = 2 * precision * recall / (precision + recall)
        return cls(
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            acc=ratio(tp + tn, tp + tn + fp + fn),
            recall=recall,
            precision=precision,
            f1=f1,
            fpr=ratio(fp, fp + tn),
        )

    def to_json_dict(self) -> dict[str, Any]:
        def show(value: float | None) -> float | str:
            return "undefined" if value is None else value

        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "acc": show(self.acc),
            "recall": show(self.recall),
            "precision": show(self.precision),
            "f1": show(self.f1),
            "fpr": show(self.fpr),
        }


@dataclass
class GcnModel:
    params: GcnParams
    vocab_fingerprint: str = ""

    @property
    def dim(self) -> int:
        return self.params.dim

    def fingerprint(self) -> str:
        return hashlib.sha256(params_to_bytes(self.params)).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(params_to_bytes(self.params, self.vocab_fingerprint))

    @classmethod
    def load(cls, path: str | Path) -> "GcnModel":
        params, fingerprint = params_from_bytes(Path(path).read_bytes())
        return cls(params=params, vocab_fingerprint=fingerprint)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    held_out: Metrics

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "held_out": self.held_out.to_json_dict(),
        }


def predict(
    model: GcnModel, graph: NormalizedGraph, threshold: float = 0.5
) -> tuple[str, float]:
    """Per-contract verdict; probability at exactly the threshold counts as
    defective (the conservative call for an auditor)."""
    probability = forward(model.params, graph).probability
    return _verdict(probability, threshold), probability


def _verdict(probability: float, threshold: float) -> str:
    return "defective" if probability >= threshold else "clean"


def evaluate(
    model: GcnModel, testset: Sequence[NormalizedGraph], threshold: float = 0.5
) -> Metrics:
    if not testset:
        raise EmptyTestSetError("evaluation needs at least one labeled graph")
    tp = fp = tn = fn = 0
    for graph in testset:
        if graph.label is None:
            raise BadLabelError(f"graph over nodes {graph.node_ids[:3]}... has no label")
        verdict, _ = predict(model, graph, threshold)
        if graph.label == "defective":
            if verdict == "defective":
                tp += 1
            else:
                fn += 1
        else:
            if verdict == "defective":
                fp += 1
            else:
                tn += 1
    return Metrics.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)


@np.errstate(all="ignore")  # a run that diverges is stopped below, not warned about
def train(
    train_graphs: Sequence[NormalizedGraph],
    test_graphs: Sequence[NormalizedGraph],
    config: TrainConfig,
    vocab_fingerprint: str = "",
) -> tuple[GcnModel, list[EpochStats]]:
    """Per-graph gradient steps over `train_graphs`; after each epoch, the
    mean training loss and the metrics on `test_graphs`. Both sides together
    need labels and both classes. Deterministic for a fixed seed. Raises
    TrainingDivergedError once an epoch ends with a non-finite loss or weight."""
    if not train_graphs:
        raise EmptyCorpusError("training corpus is empty")
    labels = [g.label for g in [*train_graphs, *test_graphs]]
    if any(label is None for label in labels):
        raise BadLabelError("every training graph needs a label")
    if len(set(labels)) < 2:
        raise DegenerateCorpusError(f"training needs both classes, got only {set(labels)}")

    dim = int(train_graphs[0].features.shape[1])
    # One parameter buffer and one gradient buffer for the whole run: every
    # step writes its gradients into `grads` and updates `params` in place.
    params = init_params(dim, config.hidden_width, config.seed)
    model = GcnModel(params=params, vocab_fingerprint=vocab_fingerprint)
    grads = GcnParams.from_flat(np.empty_like(params.flat), params.dim, params.hidden)
    state = OptimizerState()
    rng = random.Random(config.seed)
    history: list[EpochStats] = []
    # S @ X is constant (the embedding table is never trained), so compute
    # it once per graph here rather than on every step of every epoch.
    sx = [graph.s_hat @ graph.features for graph in train_graphs]

    for epoch in range(1, config.epochs + 1):
        order = list(range(len(train_graphs)))
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            graph = train_graphs[i]
            loss, _ = loss_and_grads(
                params, graph, graph.label, config.l2_penalty, sx=sx[i], out=grads
            )
            optimizer_step(state, params, grads, config)
            total_loss += loss
        if not (np.isfinite(total_loss) and np.isfinite(params.flat).all()):
            raise TrainingDivergedError(f"epoch {epoch} ended with a loss or a weight not finite")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=total_loss / len(train_graphs),
                held_out=evaluate(model, test_graphs),
            )
        )
    return model, history


@dataclass
class ReportNode:
    node_id: int
    span: tuple[int, int, int]
    salience: float


def _top_nodes(
    model: GcnModel, graph: NormalizedGraph, trace: ForwardTrace, k: int
) -> list[ReportNode]:
    """Top-k nodes by salience: the defective-class logit each node would
    produce if it were the whole pooled representation."""
    if k <= 0:
        return []
    node_logits = trace.h2 @ model.params.w_out + model.params.b_out
    salience = node_logits[:, DEFECTIVE].tolist()  # Python floats: cheap to compare
    order = sorted(range(graph.n), key=lambda i: (-salience[i], i))[:k]
    return [ReportNode(graph.node_ids[i], graph.spans[i], salience[i]) for i in order]


@dataclass
class DetectionReport:
    contract: str
    verdict: str
    probability: float
    top_nodes: list[ReportNode]
    model_fingerprint: str
    timestamp: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "contract": self.contract,
            "verdict": self.verdict,
            "probability": self.probability,
            "top_nodes": [
                {"node_id": n.node_id, "span": list(n.span), "salience": n.salience}
                for n in self.top_nodes
            ],
            "model_fingerprint": self.model_fingerprint,
            "timestamp": self.timestamp,
        }

    def to_text(self) -> str:
        lines = [
            f"contract:    {self.contract}",
            f"verdict:     {self.verdict}  (P(defective) = {self.probability:.4f})",
            f"model:       {self.model_fingerprint[:16]}",
            f"timestamp:   {self.timestamp}",
        ]
        if self.top_nodes:
            lines.append("suspect nodes (id @ offset:length:file, salience):")
            for n in self.top_nodes:
                span = ":".join(str(v) for v in n.span)
                lines.append(f"  #{n.node_id} @ {span}  {n.salience:+.4f}")
        return "\n".join(lines)


def build_report(
    model: GcnModel,
    graph: NormalizedGraph,
    contract: str,
    threshold: float = 0.5,
    k: int = 5,
    model_fingerprint: str | None = None,
) -> DetectionReport:
    """Verdict and suspect nodes for one graph. `model_fingerprint` is
    `model.fingerprint()` when the caller has hashed the model already, as
    `detect` does once per call; otherwise the model is hashed here."""
    trace = forward(model.params, graph)  # one pass serves verdict and ranking
    return DetectionReport(
        contract=contract,
        verdict=_verdict(trace.probability, threshold),
        probability=trace.probability,
        top_nodes=_top_nodes(model, graph, trace, min(k, MAX_REPORT_NODES)),
        model_fingerprint=model_fingerprint or model.fingerprint(),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )

"""Training, verdicts, the five evaluation metrics, and defect reports."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import DegenerateCorpusError, StateLensError, TrainingDivergedError, in_file
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
from .graph_pipeline import ContractGraph

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
        """Every field in order, a ratio with a zero denominator as "undefined"."""
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        return {name: "undefined" if value is None else value for name, value in values.items()}


@dataclass
class GcnModel:
    params: GcnParams
    vocab_fingerprint: str = ""

    def fingerprint(self) -> str:
        return hashlib.sha256(params_to_bytes(self.params)).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(params_to_bytes(self.params, self.vocab_fingerprint))

    @classmethod
    def load(cls, path: str | Path) -> "GcnModel":
        with in_file(path):
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


def _verdict(probability: float, threshold: float) -> str:
    """Exactly at the threshold counts as defective: the conservative call for
    an auditor. A probability that is not finite, from finite weights large
    enough to overflow the forward pass, is no call at all and is refused."""
    if not math.isfinite(probability):
        raise StateLensError(f"P(defective) is {probability}, not finite", code="non-finite-output")
    return "defective" if probability >= threshold else "clean"


@np.errstate(all="ignore")  # an overflowing forward pass is refused by `_verdict`, not warned about
def evaluate(
    model: GcnModel, testset: Sequence[ContractGraph], threshold: float = 0.5
) -> Metrics:
    """Confusion counts and metrics over graphs labeled defective or clean."""
    cells = Counter((g.label, _verdict(forward(model.params, g).probability, threshold)) for g in testset)
    tp, fn = cells["defective", "defective"], cells["defective", "clean"]
    fp, tn = cells["clean", "defective"], cells["clean", "clean"]
    return Metrics.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)


@np.errstate(all="ignore")  # a run that diverges is stopped below, not warned about
def train(
    train_graphs: Sequence[ContractGraph],
    test_graphs: Sequence[ContractGraph],
    config: TrainConfig,
    vocab_fingerprint: str = "",
) -> tuple[GcnModel, list[EpochStats]]:
    """Per-graph gradient steps over `train_graphs`; after each epoch, the
    mean training loss and the metrics on `test_graphs`. The caller's split
    leaves `train_graphs` non-empty and every graph labeled; both sides
    together must hold both classes, or DegenerateCorpusError is raised.
    Deterministic for a fixed seed. Raises TrainingDivergedError once an
    epoch ends with a non-finite loss or weight."""
    labels = {g.label for g in [*train_graphs, *test_graphs]}
    if len(labels) < 2:
        raise DegenerateCorpusError(f"training needs both classes, got only {labels}")

    dim = int(train_graphs[0].features.shape[1])
    # One parameter buffer and one gradient buffer for the whole run: every
    # step writes its gradients into `grads` and updates `params` in place.
    params = init_params(dim, config.hidden_width, config.seed)
    model = GcnModel(params=params, vocab_fingerprint=vocab_fingerprint)
    grads = GcnParams(np.empty_like(params.flat), params.dim, params.hidden)
    state = OptimizerState()
    rng = random.Random(config.seed)
    history: list[EpochStats] = []
    # S @ X is constant (X is fixed one-hot features), so compute
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
    model: GcnModel, graph: ContractGraph, trace: ForwardTrace, k: int
) -> list[ReportNode]:
    """Top-k nodes by salience: the defective-class logit each node would
    produce if it were the whole pooled representation. A listed salience
    that is not finite is refused, as `_verdict` refuses the probability."""
    node_logits = trace.h2 @ model.params.w_out + model.params.b_out
    salience = node_logits[:, DEFECTIVE]
    order = np.argsort(-salience, kind="stable")[:k].tolist()  # ties by index
    scores = salience[order].tolist()
    if not all(map(math.isfinite, scores)):
        raise StateLensError("a listed node salience is not finite", code="non-finite-output")
    return [ReportNode(graph.node_ids[i], graph.spans[i], s) for i, s in zip(order, scores)]


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


@np.errstate(all="ignore")  # as in `evaluate`
def build_report(
    model: GcnModel,
    graph: ContractGraph,
    contract: str,
    threshold: float = 0.5,
    k: int = 5,
    *,
    model_fingerprint: str,
) -> DetectionReport:
    """Verdict and suspect nodes for one graph. `model_fingerprint` is
    `model.fingerprint()`, which `detect` hashes once per call."""
    trace = forward(model.params, graph)  # one pass serves verdict and ranking
    return DetectionReport(
        contract=contract,
        verdict=_verdict(trace.probability, threshold),
        probability=trace.probability,
        top_nodes=_top_nodes(model, graph, trace, min(k, MAX_REPORT_NODES)),
        model_fingerprint=model_fingerprint,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )

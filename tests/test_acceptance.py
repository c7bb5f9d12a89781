"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end criteria (5 and 7) train real models through the CLI
and take a few seconds each; everything else is property scale.
"""

import json
import subprocess
import sys
import time
import numpy as np
import pytest

from statelens import detector as det
from statelens.ast_ingest import parse_ast_json
from statelens.errors import EmptyGraphError
from statelens.feature_extract import (
    DependencyCategory,
    extract_edges,
    extract_node_tuples,
    label_set_from_rules,
)
from statelens.gcn_core import forward, loss_and_grads
from statelens.graph_pipeline import (
    build_graph,
    build_vocabulary,
    embed_nodes,
    normalize,
    optimize_graph,
)

from helpers import (
    brute_force_component,
    brute_force_confusion,
    brute_force_normalize,
    dense_adjacency,
    finite_difference_grads,
    max_relative_grad_error,
    random_contract_graph,
    random_label_subset,
    random_normalized_graph,
    random_params,
)


def _report(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} PASS — {name}{suffix}")


def test_criterion_1_normalization_oracle():
    rng = np.random.default_rng(1001)
    started = time.time()
    worst = 0.0
    for _ in range(1000):
        graph = random_contract_graph(rng, n_min=1, n_max=8)
        vocab = build_vocabulary([graph.tuples])
        out = normalize(embed_nodes(graph, vocab))
        a_hat, expected = brute_force_normalize(dense_adjacency(graph))
        worst = max(worst, float(np.max(np.abs(out.s_hat - expected))))
        assert np.array_equal(out.a_hat, a_hat)
        assert np.max(np.abs(out.s_hat - expected)) <= 1e-12
        assert np.array_equal(out.s_hat, out.s_hat.T)
        eigenvalues = np.linalg.eigvalsh(out.s_hat)
        assert np.all(eigenvalues >= -1 - 1e-12) and np.all(eigenvalues <= 1 + 1e-12)
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(1, "normalization oracle", f"1000 graphs, max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(1002)
    started = time.time()
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 4))
        graph = random_normalized_graph(rng, n=n, dim=dim)
        params = random_params(rng, dim=dim, hidden=hidden)
        label = ("clean", "defective")[case % 2]
        l2 = float(rng.choice([0.0, 5e-4, 0.1]))
        _, analytic = loss_and_grads(params, graph, label, l2)
        numeric = finite_difference_grads(params, graph, label, l2, step=1e-5)
        error = max_relative_grad_error(analytic, numeric)
        worst = max(worst, error)
        assert error < 1e-4
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(2, "gradient check", f"100 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_pruning_invariants():
    rng = np.random.default_rng(1003)
    started = time.time()
    checked = 0
    for _ in range(1000):
        graph = random_contract_graph(rng, n_min=3, n_max=10)
        label_set = random_label_subset(rng)
        survivors = [
            i for i, t in enumerate(graph.tuples) if (t.n_type, t.category) in label_set
        ]
        if not survivors:
            with pytest.raises(EmptyGraphError):
                optimize_graph(graph, label_set)
            continue
        once = optimize_graph(graph, label_set)
        # exact survivor set against brute-force reachability
        adjacency = dense_adjacency(graph)
        pairs = {
            (i, int(j))
            for i in survivors
            for j in np.flatnonzero(adjacency[i])
            if int(j) in survivors
        }
        expected = brute_force_component(graph.n, pairs, survivors[0]) & set(survivors)
        assert set(once.node_ids) == {graph.node_ids[i] for i in expected}
        # idempotence
        twice = optimize_graph(once, label_set)
        assert twice.node_ids == once.node_ids
        assert np.array_equal(dense_adjacency(twice), dense_adjacency(once))
        # no dangling edges
        kept = set(once.node_ids)
        assert all(e.e_s in kept and e.e_e in kept for e in once.edges)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(3, "pruning invariants", f"1000 graphs ({checked} non-empty), {elapsed:.2f}s")


def test_criterion_4_permutation_invariance():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 12))
        graph = random_normalized_graph(rng, n=n, dim=6)
        params = random_params(rng, dim=6, hidden=4)
        base = forward(params, graph).logits
        for _ in range(50):
            perm = rng.permutation(n)
            permuted = random_normalized_graph(rng, n=n, dim=6)
            permuted.features = graph.features[perm]
            permuted.s_hat = graph.s_hat[np.ix_(perm, perm)]
            drift = float(np.max(np.abs(forward(params, permuted).logits - base)))
            worst = max(worst, drift)
            assert drift <= 1e-10
    _report(4, "permutation invariance", f"20 graphs x 50 permutations, max drift {worst:.2e}")


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "statelens.cli", *args],
        capture_output=True,
        text=True,
        check=False,
    )


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    corpus = root / "corpus"
    gen = _run_cli(["gen", "--pairs", "100", "--seed", "42", "--out", str(corpus)])
    assert gen.returncode == 0, gen.stderr
    runs = []
    for name in ("run_a", "run_b"):
        run_dir = root / name
        run_dir.mkdir()
        started = time.time()
        proc = _run_cli(
            [
                "train",
                "--manifest",
                str(corpus / "manifest.jsonl"),
                "--model",
                str(run_dir / "model.sgm"),
                "--vocab",
                str(run_dir / "vocab.json"),
            ]
        )
        elapsed = time.time() - started
        assert proc.returncode == 0, proc.stderr
        runs.append(
            {
                "seconds": elapsed,
                "metrics_json": proc.stdout.strip().splitlines()[-1],
                "model": run_dir / "model.sgm",
                "vocab": run_dir / "vocab.json",
            }
        )
    return {"corpus": corpus, "runs": runs}


def test_criterion_5_end_to_end_separability(end_to_end):
    run = end_to_end["runs"][0]
    metrics = json.loads(run["metrics_json"])
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 20
    assert metrics["acc"] >= 0.90
    assert metrics["fpr"] == "undefined" or metrics["fpr"] <= 0.10
    assert run["seconds"] < 120.0
    _report(
        5,
        "end-to-end separability",
        f"held-out acc {metrics['acc']:.2f}, fpr {metrics['fpr']}, {run['seconds']:.1f}s",
    )


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        verdicts = ["defective" if v else "clean" for v in rng.integers(0, 2, size=n)]
        labels = ["defective" if v else "clean" for v in rng.integers(0, 2, size=n)]
        tp, fp, tn, fn = brute_force_confusion(verdicts, labels)
        m = det.Metrics.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)
        assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
        assert m.acc == (tp + tn) / n
        assert m.precision == (tp / (tp + fp) if tp + fp else None)
        assert m.recall == (tp / (tp + fn) if tp + fn else None)
        assert m.fpr == (fp / (fp + tn) if fp + tn else None)
        if m.precision is not None and m.recall is not None and m.precision + m.recall:
            assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
        else:
            assert m.f1 is None
    _report(6, "metrics oracle", "1000 random confusion vectors, exact")


def test_criterion_7_determinism(end_to_end):
    run_a, run_b = end_to_end["runs"]
    assert run_a["model"].read_bytes() == run_b["model"].read_bytes()
    assert run_a["vocab"].read_bytes() == run_b["vocab"].read_bytes()
    assert run_a["metrics_json"] == run_b["metrics_json"]
    _report(7, "determinism", "two runs, bit-identical model + vocab + metrics")


def test_criterion_8_regression_fixture(fixture_dir):
    text = (fixture_dir / "unguarded_transfer.ast.json").read_text(encoding="utf-8")
    tree = parse_ast_json(text, source_unit="unguarded_transfer.ast.json")
    tuples = extract_node_tuples(tree)
    edges = extract_edges(tree, tuples)
    graph = optimize_graph(build_graph(tree, tuples, edges), label_set_from_rules())
    vocab = build_vocabulary([graph.tuples])
    final = normalize(embed_nodes(graph, vocab))
    assert final.n == graph.n
    functions = [
        t
        for t in graph.tuples
        if t.category is DependencyCategory.FUNCTION
        and t.n_type == "FunctionDefinition"
        and tree.nodes[t.n_id].name == "safeTransferFrom"
    ]
    assert len(functions) == 1
    assert np.all(np.isfinite(final.s_hat)) and np.all(np.isfinite(final.features))
    _report(
        8,
        "unguarded transfer regression fixture",
        f"{final.n} nodes, transfer function retained",
    )

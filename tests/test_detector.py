import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelens import detector as det
from statelens.corpus import split_items
from statelens.errors import DegenerateCorpusError
from statelens.feature_extract import extract_node_tuples
from statelens.gcn_core import GcnParams, TrainConfig, forward, params_to_bytes
from statelens.graph_pipeline import build_vocabulary

from helpers import (
    brute_force_confusion,
    generated_contracts,
    normalized_contract,
    random_normalized_graph,
    random_params,
    reference_top_nodes,
    reference_train,
)


def _zero_model(dim=4, hidden=3) -> det.GcnModel:
    params = GcnParams(
        w1=np.zeros((dim, hidden)),
        w2=np.zeros((hidden, hidden)),
        w_out=np.zeros((hidden, 2)),
        b_out=np.zeros(2),
    )
    return det.GcnModel(params=params)


def _toy_graph(label: str, rng, dim=8, n=4):
    g = random_normalized_graph(rng, n=n, dim=dim, label=label)
    g.features = np.full((n, dim), 0.5 if label == "defective" else -0.5)
    return g


def _toy_corpus(rng, copies=10):
    return [_toy_graph("defective", rng) for _ in range(copies)] + [
        _toy_graph("clean", rng) for _ in range(copies)
    ]


def _split(graphs, seed: int):
    """The 90/10 stratified split `statelens train` makes."""
    return split_items(graphs, [g.label for g in graphs], seed)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_worked_example():
    m = det.Metrics.from_counts(tp=9, fp=1, tn=9, fn=1)
    assert m.acc == pytest.approx(0.9)
    assert m.precision == pytest.approx(0.9)
    assert m.recall == pytest.approx(0.9)
    assert m.f1 == pytest.approx(0.9)
    assert m.fpr == pytest.approx(0.1)


def test_metrics_all_correct():
    m = det.Metrics.from_counts(tp=5, fp=0, tn=5, fn=0)
    assert m.acc == 1.0 and m.fpr == 0.0 and m.f1 == 1.0


def test_metrics_undefined_denominators():
    m = det.Metrics.from_counts(tp=3, fp=0, tn=0, fn=0)
    assert m.fpr is None
    assert m.to_json_dict()["fpr"] == "undefined"
    m2 = det.Metrics.from_counts(tp=0, fp=0, tn=4, fn=0)
    assert m2.precision is None and m2.recall is None and m2.f1 is None
    out = m2.to_json_dict()
    assert out["precision"] == "undefined" and out["f1"] == "undefined"
    assert out["acc"] == 1.0


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=100))
@settings(max_examples=100)
def test_metrics_match_brute_force(pairs):
    verdicts = ["defective" if v else "clean" for v, _ in pairs]
    labels = ["defective" if l else "clean" for _, l in pairs]
    tp, fp, tn, fn = brute_force_confusion(verdicts, labels)
    m = det.Metrics.from_counts(tp=tp, fp=fp, tn=tn, fn=fn)
    total = len(pairs)
    assert m.acc == (tp + tn) / total
    if tp + fp:
        assert m.precision == tp / (tp + fp)
    if tp + fn:
        assert m.recall == tp / (tp + fn)
    if fp + tn:
        assert m.fpr == fp / (fp + tn)
    if m.precision is not None and m.recall is not None and m.precision + m.recall > 0:
        assert m.f1 == pytest.approx(2 * m.precision * m.recall / (m.precision + m.recall))


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


def _verdict(model: det.GcnModel, graph, threshold: float) -> str:
    return det.build_report(model, graph, "c", threshold=threshold, k=0).verdict


def test_predict_tie_goes_defective():
    g = random_normalized_graph(np.random.default_rng(0), n=3, dim=4, label="defective")
    report = det.build_report(_zero_model(), g, "c", threshold=0.5)
    assert report.probability == 0.5
    assert report.verdict == "defective"
    assert det.evaluate(_zero_model(), [g], threshold=0.5).tp == 1


def test_predict_impossible_threshold_always_clean():
    rng = np.random.default_rng(1)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    for _ in range(10):
        assert _verdict(model, random_normalized_graph(rng, n=4, dim=4), threshold=1.01) == "clean"


def test_threshold_monotonicity():
    rng = np.random.default_rng(2)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    graphs = [random_normalized_graph(rng, n=5, dim=4) for _ in range(20)]
    thresholds = [0.0, 0.2, 0.5, 0.8, 1.0]
    previous = None
    for threshold in thresholds:
        flagged = {i for i, g in enumerate(graphs) if _verdict(model, g, threshold) == "defective"}
        if previous is not None:
            assert flagged <= previous  # raising the bar can only clear contracts
        previous = flagged


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_counts_add_over_subsets():
    rng = np.random.default_rng(3)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    graphs = [
        random_normalized_graph(rng, n=4, dim=4, label=("defective", "clean")[i % 2])
        for i in range(12)
    ]
    whole = det.evaluate(model, graphs)
    left = det.evaluate(model, graphs[:5])
    right = det.evaluate(model, graphs[5:])
    assert (whole.tp, whole.fp, whole.tn, whole.fn) == (
        left.tp + right.tp,
        left.fp + right.fp,
        left.tn + right.tn,
        left.fn + right.fn,
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_separable_toy_reaches_perfect_heldout():
    corpus = _toy_corpus(np.random.default_rng(5))
    model, history = det.train(*_split(corpus, 3), TrainConfig(epochs=50, seed=3))
    assert history[-1].held_out.acc == 1.0
    assert len(history) == 50


def test_train_deterministic():
    corpus = _toy_corpus(np.random.default_rng(6))
    config = TrainConfig(epochs=10, seed=7)
    model_a, history_a = det.train(*_split(corpus, 7), config)
    model_b, history_b = det.train(*_split(corpus, 7), config)
    assert params_to_bytes(model_a.params) == params_to_bytes(model_b.params)
    assert [h.to_json_dict() for h in history_a] == [h.to_json_dict() for h in history_b]


def test_train_equals_allocating_reference_steps():
    contracts = generated_contracts(10, seed=5)
    vocab = build_vocabulary([extract_node_tuples(tree) for _, _, tree in contracts], dim=16, seed=5)
    corpus = [normalized_contract(tree, vocab, label=label) for _, label, tree in contracts]
    config = TrainConfig(epochs=5, seed=5, learning_rate=1e-2)
    train_side, test_side = _split(corpus, config.seed)
    model, history = det.train(train_side, test_side, config)
    ref_params, ref_history = reference_train(train_side, test_side, config)
    assert params_to_bytes(model.params) == params_to_bytes(ref_params)
    assert history == ref_history


def test_train_single_class_degenerate():
    rng = np.random.default_rng(7)
    corpus = [_toy_graph("defective", rng) for _ in range(4)]
    with pytest.raises(DegenerateCorpusError):
        det.train(corpus[:3], corpus[3:], TrainConfig(epochs=1))


def test_train_scores_only_the_test_graphs():
    rng = np.random.default_rng(9)
    corpus = _toy_corpus(rng, copies=5)
    train_side, test_side = corpus[:4] + corpus[5:9], [corpus[4], corpus[9]]
    model, history = det.train(train_side, test_side, TrainConfig(epochs=5, seed=1))
    # held-out metrics must come from exactly the two test graphs
    assert history[-1].held_out.tp + history[-1].held_out.fp + history[-1].held_out.tn + history[
        -1
    ].held_out.fn == 2


# ---------------------------------------------------------------------------
# suspect nodes: the localization a report carries
# ---------------------------------------------------------------------------


def test_localize_k_zero():
    g = random_normalized_graph(np.random.default_rng(10), n=4, dim=4)
    assert det.build_report(_zero_model(), g, contract="g", k=0).top_nodes == []


def test_localize_uniform_graph_stable_order():
    rng = np.random.default_rng(11)
    g = random_normalized_graph(rng, n=5, dim=4)
    g.features = np.ones((5, 4))
    g.s_hat = np.full((5, 5), 1 / 5.0)  # fully uniform mixing
    g.node_ids = [50, 40, 30, 20, 10]
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    ranked = det.build_report(model, g, contract="g", k=5).top_nodes
    saliences = [node.salience for node in ranked]
    assert max(saliences) - min(saliences) < 1e-12
    assert [node.node_id for node in ranked] == [50, 40, 30, 20, 10]  # graph order on ties


def test_localize_sorted_descending():
    rng = np.random.default_rng(12)
    g = random_normalized_graph(rng, n=8, dim=4)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    ranked = det.build_report(model, g, contract="g", k=4).top_nodes
    assert len(ranked) == 4
    saliences = [node.salience for node in ranked]
    assert saliences == sorted(saliences, reverse=True)


@pytest.mark.parametrize("k", [1, 3, "n", "n + 2"])
def test_localize_ranks_exact_ties_as_the_sorted_key(k):
    """Under S = I, nodes with duplicate feature rows tie; the zero rows tie
    exactly (salience b_out) whatever order a product sums in."""
    rng = np.random.default_rng(16)
    distinct = np.vstack([np.zeros(4), rng.normal(size=(3, 4))])
    n = 40  # above numpy's insertion-sort cutoff, so an unstable sort shows
    g = random_normalized_graph(rng, n=n, dim=4)
    g.features = distinct[rng.integers(0, len(distinct), size=n)]
    g.s_hat = np.eye(n)
    g.node_ids = [1000 - 7 * i for i in range(n)]
    g.spans = [(i, 1, 0) for i in range(n)]
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    trace = forward(model.params, g)
    k = {"n": n, "n + 2": n + 2}.get(k, k)
    expected = reference_top_nodes(model, g, trace, k)
    assert len({salience for _, _, salience in reference_top_nodes(model, g, trace, n)}) < n
    ranked = det._top_nodes(model, g, trace, k)
    assert [(r.node_id, r.span, r.salience) for r in ranked] == expected
    assert all(type(r.salience) is float for r in ranked)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_roundtrips_to_json():
    rng = np.random.default_rng(13)
    g = random_normalized_graph(rng, n=6, dim=4, label="defective")
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    report = det.build_report(model, g, contract="x.ast.json", k=3)
    data = report.to_json_dict()
    assert data["contract"] == "x.ast.json"
    assert data["verdict"] in ("defective", "clean")
    assert len(data["top_nodes"]) == 3
    saliences = [n["salience"] for n in data["top_nodes"]]
    assert saliences == sorted(saliences, reverse=True)
    assert data["model_fingerprint"] == model.fingerprint()
    assert "verdict" in report.to_text()


def test_report_takes_a_fingerprint_the_caller_computed():
    rng = np.random.default_rng(15)
    g = random_normalized_graph(rng, n=6, dim=4)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    given = det.build_report(model, g, contract="z", model_fingerprint=model.fingerprint())
    hashed = det.build_report(model, g, contract="z")
    given.timestamp = hashed.timestamp
    assert given.to_json_dict() == hashed.to_json_dict()
    assert det.build_report(model, g, contract="z", model_fingerprint="f" * 64).model_fingerprint == "f" * 64


def test_report_caps_top_nodes_at_ten():
    rng = np.random.default_rng(14)
    g = random_normalized_graph(rng, n=30, dim=4)
    model = det.GcnModel(params=random_params(rng, dim=4, hidden=3))
    report = det.build_report(model, g, contract="y", k=99)
    assert len(report.top_nodes) == 10

import math

import numpy as np
import pytest

from statelens.detector import GcnModel
from statelens.errors import SchemaViolationError, ShapeMismatchError
from statelens.gcn_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GcnParams,
    OptimizerState,
    TrainConfig,
    forward,
    init_params,
    loss_and_grads,
    optimizer_step,
    params_to_bytes,
)
from statelens.graph_pipeline import NormalizedGraph

from helpers import (
    finite_difference_grads,
    max_relative_grad_error,
    random_normalized_graph,
    random_params,
    reference_forward,
    reference_loss_and_grads,
    reference_optimizer_step,
)


def _zero_params(dim: int, hidden: int) -> GcnParams:
    return GcnParams(
        w1=np.zeros((dim, hidden)),
        w2=np.zeros((hidden, hidden)),
        w_out=np.zeros((hidden, 2)),
        b_out=np.zeros(2),
    )


NAMES = ("w1", "w2", "w_out", "b_out")


def _graph(s_hat, features) -> NormalizedGraph:
    n = np.shape(features)[0]
    return NormalizedGraph(
        features=np.asarray(features, dtype=float),
        s_hat=np.asarray(s_hat, dtype=float),
        node_ids=list(range(n)),
        spans=[(0, 0, 0)] * n,
    )


def _layer1_params(w1) -> GcnParams:
    """Params whose first layer is `w1`; the rest are zeros."""
    hidden = np.shape(w1)[1]
    params = _zero_params(np.shape(w1)[0], hidden)
    params.w1[:] = w1
    return params


# ---------------------------------------------------------------------------
# propagation layer: relu((S @ H) @ W), checked through forward's trace
# ---------------------------------------------------------------------------


def test_layer_zero_weights_zero_output():
    rng = np.random.default_rng(0)
    g = random_normalized_graph(rng, n=4, dim=3)
    trace = forward(_layer1_params(np.zeros((3, 5))), g)
    assert trace.h1.shape == (4, 5)
    assert np.all(trace.h1 == 0)


def test_layer_scalar_case():
    trace = forward(_layer1_params([[3.0]]), _graph([[1.0]], [[2.0]]))
    assert trace.h1.tolist() == [[6.0]]


def test_layer_uniform_averaging():
    s_hat = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = np.array([[1.0], [3.0]])
    assert forward(_layer1_params([[1.0]]), _graph(s_hat, h)).h1.tolist() == [[2.0], [2.0]]


def test_layer_relu_toggle():
    params = _layer1_params([[1.0]])
    trace = forward(params, _graph([[1.0]], [[-2.0]]))
    assert trace.h1.tolist() == [[0.0]]
    assert (trace.sh0 @ params.w1).tolist() == [[-2.0]]  # the linear part before relu


def test_layer_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        forward(_zero_params(2, 2), _graph(np.eye(3), np.ones((2, 2))))
    with pytest.raises(ShapeMismatchError):
        forward(_zero_params(2, 2), _graph(np.eye(2), np.ones((2, 3))))
    with pytest.raises(ShapeMismatchError):
        forward(_zero_params(2, 2), _graph(np.ones((2, 3)), np.ones((2, 2))))


def test_params_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        GcnParams(w1=np.ones((2, 3)), w2=np.ones((2, 2)), w_out=np.ones((3, 2)), b_out=np.ones(2))
    with pytest.raises(ShapeMismatchError):
        GcnParams.from_flat(np.ones(5), dim=2, hidden=3)


def test_params_views_share_one_vector():
    params = random_params(np.random.default_rng(20), dim=3, hidden=2)
    assert params.flat.shape == (3 * 2 + 2 * 2 + 2 * 2 + 2,)
    for view in (params.w1, params.w2, params.w_out, params.b_out):
        assert np.shares_memory(view, params.flat)
    params.w2[1, 0] = 7.5
    assert params.flat[3 * 2 + 2] == 7.5


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_params_is_coin_flip():
    rng = np.random.default_rng(1)
    g = random_normalized_graph(rng, n=5, dim=4)
    trace = forward(_zero_params(4, 3), g)
    assert trace.logits.tolist() == [0.0, 0.0]
    assert trace.probability == 0.5


def test_forward_single_node_closed_form():
    # n=1 graph with s_hat=[[1]]: the network collapses to scalar algebra
    g = random_normalized_graph(np.random.default_rng(2), n=1, dim=1)
    g.features[:] = 1.5
    params = GcnParams(
        w1=np.array([[2.0]]), w2=np.array([[-1.0]]), w_out=np.array([[0.7, -0.3]]), b_out=np.array([0.1, 0.2])
    )
    trace = forward(params, g)
    h1 = max(1.5 * 2.0, 0.0)
    h2 = max(h1 * -1.0, 0.0)
    logits = [h2 * 0.7 + 0.1, h2 * -0.3 + 0.2]
    exp = [math.exp(v - max(logits)) for v in logits]
    expected_prob = exp[1] / sum(exp)
    assert np.allclose(trace.logits, logits)
    assert trace.probability == pytest.approx(expected_prob, abs=1e-15)


def test_forward_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_normalized_graph(rng, n=n, dim=6)
        params = random_params(rng, dim=6, hidden=4)
        base = forward(params, g).logits
        for _ in range(5):
            perm = rng.permutation(n)
            permuted = random_normalized_graph(rng, n=n, dim=6)
            permuted.features = g.features[perm]
            permuted.s_hat = g.s_hat[np.ix_(perm, perm)]
            assert np.max(np.abs(forward(params, permuted).logits - base)) <= 1e-10


def test_forward_trace_is_finite_and_consistent():
    rng = np.random.default_rng(4)
    g = random_normalized_graph(rng, n=6, dim=5)
    params = random_params(rng, dim=5, hidden=3, scale=50.0)  # large weights stress softmax
    trace = forward(params, g)
    for arr in (trace.h1, trace.h2, trace.pooled, trace.logits):
        assert np.all(np.isfinite(arr))
    assert 0.0 <= trace.probability <= 1.0
    assert np.allclose(trace.pooled, trace.h2.mean(axis=0))


def test_forward_dim_mismatch():
    g = random_normalized_graph(np.random.default_rng(5), n=3, dim=4)
    with pytest.raises(ShapeMismatchError):
        forward(_zero_params(7, 3), g)


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def test_loss_zero_params_is_ln2():
    g = random_normalized_graph(np.random.default_rng(6), n=4, dim=3)
    for label in ("clean", "defective"):
        loss, _ = loss_and_grads(_zero_params(3, 2), g, label)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_l2_term_adds_exactly():
    rng = np.random.default_rng(7)
    g = random_normalized_graph(rng, n=4, dim=3)
    params = random_params(rng, dim=3, hidden=2)
    l2 = 0.37
    base, _ = loss_and_grads(params, g, "defective", l2_penalty=l2)
    doubled, _ = loss_and_grads(params, g, "defective", l2_penalty=2 * l2)
    assert doubled - base == pytest.approx(l2 * params.norm_sq() / 2, rel=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for case in range(15):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 4))
        g = random_normalized_graph(rng, n=n, dim=dim)
        params = random_params(rng, dim=dim, hidden=hidden)
        label = ("clean", "defective")[case % 2]
        l2 = float(rng.choice([0.0, 5e-4, 0.2]))
        _, analytic = loss_and_grads(params, g, label, l2)
        numeric = finite_difference_grads(params, g, label, l2)
        assert max_relative_grad_error(analytic, numeric) < 1e-4


def test_bad_label_rejected():
    g = random_normalized_graph(np.random.default_rng(9), n=2, dim=2)
    with pytest.raises(ValueError):
        loss_and_grads(_zero_params(2, 2), g, "maybe")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_zero_grads_leave_params_unchanged():
    params = random_params(np.random.default_rng(10), dim=3, hidden=2)
    zero = _zero_params(3, 2)
    for optimizer in ("sgd", "adam"):
        config = TrainConfig(optimizer=optimizer, learning_rate=0.1, epochs=1)
        updated = GcnParams.from_flat(params.flat.copy(), params.dim, params.hidden)
        optimizer_step(OptimizerState(), updated, zero, config)
        for name in NAMES:
            assert np.array_equal(getattr(updated, name), getattr(params, name))


def test_sgd_scalar_step():
    params = GcnParams(
        w1=np.array([[1.0]]), w2=np.array([[1.0]]), w_out=np.array([[1.0, 1.0]]), b_out=np.zeros(2)
    )
    grads = GcnParams(
        w1=np.array([[1.0]]), w2=np.zeros((1, 1)), w_out=np.zeros((1, 2)), b_out=np.zeros(2)
    )
    config = TrainConfig(optimizer="sgd", learning_rate=0.1, epochs=1)
    state = OptimizerState()
    optimizer_step(state, params, grads, config)
    assert params.w1.tolist() == [[0.9]]
    assert state.step == 1


def test_adam_first_step_magnitude_and_sign():
    rng = np.random.default_rng(11)
    params = random_params(rng, dim=2, hidden=2)
    grads = random_params(rng, dim=2, hidden=2)
    config = TrainConfig(optimizer="adam", learning_rate=1e-3, epochs=1)
    updated = GcnParams.from_flat(params.flat.copy(), params.dim, params.hidden)
    state = OptimizerState()
    optimizer_step(state, updated, grads, config)
    for name in NAMES:
        g = getattr(grads, name)
        delta = getattr(updated, name) - getattr(params, name)
        # first bias-corrected step: -lr * g / (|g| + eps) ~= -lr * sign(g)
        expected = -config.learning_rate * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(delta, expected, rtol=1e-12)
        assert np.all(np.sign(delta[g != 0]) == -np.sign(g[g != 0]))
    assert state.step == 1 and state.m is not None and state.v is not None


def test_adam_state_threading():
    rng = np.random.default_rng(12)
    params = random_params(rng, dim=2, hidden=2)
    grads = random_params(rng, dim=2, hidden=2)
    config = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=1)
    state = OptimizerState()
    for expected_step in (1, 2, 3):
        optimizer_step(state, params, grads, config)
        assert state.step == expected_step
    assert np.all(np.isfinite(params.flat))


def test_monotone_loss_on_separable_pair():
    rng = np.random.default_rng(13)
    defective = random_normalized_graph(rng, n=4, dim=8, label="defective")
    clean = random_normalized_graph(rng, n=4, dim=8, label="clean")
    defective.features = np.full((4, 8), 0.5)
    clean.features = np.full((4, 8), -0.5)
    params = init_params(8, 3, seed=1)
    config = TrainConfig(optimizer="sgd", learning_rate=1e-2, epochs=1)
    state = OptimizerState()

    def total_loss(p: GcnParams) -> float:
        return sum(loss_and_grads(p, g, g.label)[0] for g in (defective, clean))

    previous = total_loss(params)
    for step in range(10):
        graph = (defective, clean)[step % 2]
        _, grads = loss_and_grads(params, graph, graph.label)
        optimizer_step(state, params, grads, config)
        current = total_loss(params)
        assert current < previous
        previous = current


def _reference_steps(params: GcnParams, graphs, config: TrainConfig) -> dict[str, np.ndarray]:
    """Per-array SGD/Adam with L2, in the evaluation order the flat update must keep."""
    p = {name: getattr(params, name).copy() for name in NAMES}
    m = {name: np.zeros_like(arr) for name, arr in p.items()}
    v = {name: np.zeros_like(arr) for name, arr in p.items()}
    l2, lr = config.l2_penalty, config.learning_rate
    for t, graph in enumerate(graphs, start=1):
        _, raw = loss_and_grads(GcnParams(**p), graph, graph.label, 0.0)
        g = {name: getattr(raw, name) + l2 * p[name] for name in NAMES}
        for name in NAMES:
            if config.optimizer == "sgd":
                p[name] = p[name] - lr * g[name]
                continue
            m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g[name]
            v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g[name] * g[name]
            bias1 = 1.0 - ADAM_BETA1**t
            bias2 = 1.0 - ADAM_BETA2**t
            p[name] = p[name] - lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + ADAM_EPS)
    return p


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_flat_steps_equal_per_array_reference_bitwise(optimizer):
    rng = np.random.default_rng(21)
    graphs = [
        random_normalized_graph(rng, n=n, dim=5, label=label)
        for n, label in ((4, "clean"), (6, "defective"), (3, "clean"))
    ]
    params = random_params(rng, dim=5, hidden=3)
    config = TrainConfig(optimizer=optimizer, learning_rate=0.05, l2_penalty=0.3, epochs=1)
    expected = _reference_steps(params, graphs, config)
    state = OptimizerState()
    for graph in graphs:
        _, grads = loss_and_grads(params, graph, graph.label, config.l2_penalty)
        optimizer_step(state, params, grads, config)
    assert state.step == 3
    for name in NAMES:
        assert np.array_equal(getattr(params, name), expected[name]), name


def test_precomputed_sx_gives_bitwise_equal_gradients():
    rng = np.random.default_rng(22)
    for case in range(10):
        n = int(rng.integers(1, 12))
        g = random_normalized_graph(rng, n=n, dim=6)
        params = random_params(rng, dim=6, hidden=4)
        label = ("clean", "defective")[case % 2]
        loss, grads = loss_and_grads(params, g, label, 5e-4)
        loss_sx, grads_sx = loss_and_grads(params, g, label, 5e-4, sx=g.s_hat @ g.features)
        assert loss_sx == loss
        assert np.array_equal(grads_sx.flat, grads.flat)


def test_forward_equals_allocating_reference_bitwise():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 11):
        g = random_normalized_graph(rng, n=n, dim=6)
        params = random_params(rng, dim=6, hidden=4)
        trace = forward(params, g)
        expected = reference_forward(params, g)
        for name, arr in expected.items():
            assert np.array_equal(getattr(trace, name), arr), name
        assert trace.probability == float(expected["probs"][1])


@pytest.mark.parametrize("l2", [0.0, 5e-4])
def test_gradients_equal_allocating_reference_bitwise(l2):
    rng = np.random.default_rng(24)
    for case in range(8):
        g = random_normalized_graph(rng, n=int(rng.integers(1, 12)), dim=6)
        params = random_params(rng, dim=6, hidden=4)
        label = ("clean", "defective")[case % 2]
        loss, grads = loss_and_grads(params, g, label, l2)
        ref_loss, ref_grads = reference_loss_and_grads(params, g, label, l2)
        assert loss == ref_loss
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()


def test_out_buffer_reused_across_graphs_carries_nothing_over():
    rng = np.random.default_rng(25)
    big = random_normalized_graph(rng, n=9, dim=5)
    small = random_normalized_graph(rng, n=2, dim=5)
    params = random_params(rng, dim=5, hidden=3)
    out = GcnParams.from_flat(np.full(params.flat.size, np.nan), params.dim, params.hidden)
    for graph, label in ((big, "defective"), (small, "clean"), (big, "clean")):
        loss, grads = loss_and_grads(params, graph, label, 5e-4, out=out)
        ref_loss, ref_grads = reference_loss_and_grads(params, graph, label, 5e-4)
        assert grads is out
        assert loss == ref_loss
        assert out.flat.tobytes() == ref_grads.flat.tobytes()


@pytest.mark.parametrize("l2", [0.0, 5e-4])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_in_place_steps_equal_allocating_reference_bytes(optimizer, l2):
    rng = np.random.default_rng(26)
    graphs = [
        random_normalized_graph(rng, n=int(rng.integers(1, 10)), dim=5, label=("clean", "defective")[k % 2])
        for k in range(12)
    ]
    config = TrainConfig(optimizer=optimizer, learning_rate=0.05, l2_penalty=l2, epochs=1)
    params = random_params(rng, dim=5, hidden=3)
    ref_params = GcnParams.from_flat(params.flat.copy(), params.dim, params.hidden)
    buffer = params.flat
    grads = GcnParams.from_flat(np.empty_like(buffer), params.dim, params.hidden)
    state, ref_state = OptimizerState(), OptimizerState()
    for graph in graphs:
        loss, _ = loss_and_grads(params, graph, graph.label, l2, out=grads)
        optimizer_step(state, params, grads, config)
        ref_loss, ref_grads = reference_loss_and_grads(ref_params, graph, graph.label, l2)
        ref_params, ref_state = reference_optimizer_step(ref_state, ref_params, ref_grads, config)
        assert loss == ref_loss
        assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert params.flat is buffer  # updated in place, never replaced
    assert state.step == ref_state.step == len(graphs)
    if optimizer == "adam":
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_model_roundtrip(tmp_path):
    model = GcnModel(random_params(np.random.default_rng(14), dim=5, hidden=3), "abc123")
    path = tmp_path / "model.sgm"
    model.save(path)
    loaded = GcnModel.load(path)
    assert loaded.vocab_fingerprint == "abc123"
    for name in NAMES:
        assert np.array_equal(getattr(loaded.params, name), getattr(model.params, name))
    assert loaded.fingerprint() == model.fingerprint()


def test_model_roundtrip_minimal_shapes(tmp_path):
    params = random_params(np.random.default_rng(15), dim=1, hidden=1)
    path = tmp_path / "model.sgm"
    GcnModel(params).save(path)
    loaded = GcnModel.load(path).params
    assert loaded.w1.shape == (1, 1)
    assert np.array_equal(loaded.w1, params.w1)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.sgm"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(SchemaViolationError):
        GcnModel.load(path)


def test_model_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        GcnModel.load(tmp_path / "nope.sgm")


def test_fingerprint_changes_with_weights():
    rng = np.random.default_rng(17)
    a = random_params(rng, dim=2, hidden=2)
    b = GcnParams.from_flat(a.flat.copy(), a.dim, a.hidden)
    b.w1[0, 0] += 1e-9
    assert GcnModel(a).fingerprint() != GcnModel(b).fingerprint()
    assert params_to_bytes(a) != params_to_bytes(b)

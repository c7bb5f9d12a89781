#!/usr/bin/env python3
"""Where a sparse S starts to pay: dense vs SparseOperator timings by graph size.

For each size n it builds a random tree plus 0.3·n random extra links (the
merged benchmark units have about 1.3 links per node), gives its nodes
random one-hot features d = 11 wide (the vocabulary width of
`statelens gen --pairs 100 --seed 42`), and times two things with S forced
dense and forced sparse:

- one S @ X product;
- `normalize` followed by one `forward` (hidden 32), the work `detect`
  does per contract.

Run it with one BLAS thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 python3 scripts/s_crossover.py [n ...]

Each figure is the median of 7 timing runs, in microseconds.
`graph_pipeline.DENSE_MAX_NODES` is set from this table.

With `--blocks` it instead sweeps `graph_pipeline.SPARSE_BLOCK_ELEMENTS`, the
budget of one block of a sparse S @ H, on one graph of n nodes (default
2560, the size of a merged benchmark unit). The budget governs both sparse
products of `forward`, so for each budget it times three things, 30 times
each in this process: S @ X at d = 11, S @ H at the hidden width (32), and
one whole `forward`. It prints the median time in microseconds of each and,
for the two products, the minor page faults per product (from
`resource.getrusage`):

    OPENBLAS_NUM_THREADS=1 python3 scripts/s_crossover.py --blocks [n]

The last row, `one block`, is a budget that holds every entry at once.
"""

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from statelens import graph_pipeline as gp
from statelens.gcn_core import forward, init_params

DEFAULT_SIZES = (1024, 512, 384, 320, 256, 224, 192, 160, 128, 64)
BLOCK_BUDGETS = (1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 20)
DIM, HIDDEN = 11, 32


def random_graph(rng: np.random.Generator, n: int) -> gp.ContractGraph:
    links = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    extra = rng.integers(0, n, size=(int(0.3 * n), 2)).tolist()
    links += [(i, j) for i, j in extra if i != j]
    return gp.ContractGraph(
        node_ids=list(range(n)),
        tuples=[],
        spans=[],
        pairs=gp.link_pairs(n, links),
        edges=[],
        features=np.eye(DIM)[rng.integers(0, DIM, size=n)],
    )


def median_us(fn, reps: int) -> float:
    runs = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        runs.append((time.perf_counter() - start) / reps)
    return sorted(runs)[3] * 1e6


def timed(fn, reps: int = 30) -> tuple[float, float]:
    """Median microseconds per call, and minor page faults per call, over `reps` calls."""
    times, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return sorted(times)[reps // 2] * 1e6, faults / reps


def sweep_blocks(n: int) -> None:
    rng = np.random.default_rng(5)
    gp.DENSE_MAX_NODES = n - 1
    graph = gp.normalize(random_graph(rng, n))
    s_hat, hidden = graph.s_hat, rng.random((n, HIDDEN))
    params = init_params(DIM, HIDDEN, 0)
    entries = len(s_hat.data)
    print(f"n = {n}, {entries} stored entries")
    print(f"{'':>10} | {'S @ X, d = ' + str(DIM):^25} | {'S @ H, d = ' + str(HIDDEN):^25} | {'forward':>10}")
    product = f"{'us/product':>10} {'faults/product':>14}"
    print(f"{'budget':>10} | {product} | {product} | {'us':>10}")
    for budget in (*BLOCK_BUDGETS, entries * HIDDEN):
        gp.SPARSE_BLOCK_ELEMENTS = budget
        sx_us, sx_faults = timed(lambda: s_hat @ graph.features)
        sh_us, sh_faults = timed(lambda: s_hat @ hidden)
        forward_us, _ = timed(lambda: forward(params, graph))
        label = "one block" if budget == entries * HIDDEN else str(budget)
        print(f"{label:>10} | {sx_us:10.1f} {sx_faults:14.1f} | {sh_us:10.1f} {sh_faults:14.1f} | {forward_us:10.1f}")


def main() -> int:
    if sys.argv[1:2] == ["--blocks"]:
        sweep_blocks(int(sys.argv[2]) if len(sys.argv) > 2 else 2560)
        return 0
    sizes = [int(v) for v in sys.argv[1:]] or DEFAULT_SIZES
    rng = np.random.default_rng(5)
    params = init_params(DIM, HIDDEN, 0)
    print(f"{'n':>5} {'links':>6} | {'S@X dense':>10} {'S@X csr':>10} | {'norm+fwd dense':>14} {'norm+fwd csr':>13}")
    for n in sizes:
        graph = random_graph(rng, n)
        reps = max(3, 20000 // n)
        row = []
        for limit in (n, n - 1):  # n <= limit keeps S dense
            gp.DENSE_MAX_NODES = limit
            s_hat = gp.normalize(graph).s_hat
            row.append(median_us(lambda: s_hat @ graph.features, reps))
            row.append(median_us(lambda: forward(params, gp.normalize(graph)), reps))
        dense_mm, dense_all, csr_mm, csr_all = row
        print(f"{n:5d} {len(graph.pairs):6d} | {dense_mm:10.1f} {csr_mm:10.1f} | {dense_all:14.1f} {csr_all:13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

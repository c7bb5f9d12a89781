"""statelens benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload audit_batch --seed 1 --seconds 16 --trace 0

Run from the repository root. The run generates its inputs from --seed
under .bench_work/, trains a model when the workload needs one, then runs
the workload in a fresh worker interpreter (worker.py) that calls
`statelens.cli.main` with a user's argv, one call after another, for
--seconds. It checks every output and prints one JSON object as its last
stdout line: the end-to-end metrics with --trace 0, the per-layer metrics
from a traced run with --trace 1. It exits 1 when a check fails and 2 when
the program cannot be found. perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
sys.path.insert(0, str(ROOT / "src"))

# Fresh interpreters timed to ready before and after the measuring worker,
# which is timed too; set-up reports the median of all of them.
SETUP_PROBES_EACH_SIDE = 3
# The CLI command each workload times as `cli_call_s`.
COMMAND = {"audit_batch": "detect", "train_large": "train"}
# Minimum rounds per measured phase; train_large needs three rounds over its
# 16 large units so that 10 or more verdicts lie beyond its tail percentile.
MIN_ROUNDS = {"audit_batch": 1, "train_large": 3}
# The highest percentile with at least 10 verdicts beyond it in one detect
# call of 2000 verdicts (audit_batch), or in the 48 or more verdicts of a
# train_large run, whose detect calls have only 16.
TAIL_PERCENTILE = {"audit_batch": 99.5, "train_large": 75}
WORKER_TIMEOUT_S = 170
# The workload runs in one process with no extra threads; OpenBLAS would
# otherwise start a thread per core for numpy's matrix products.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Acceptance criterion 5: `train` on the corpus of `gen --pairs 100 --seed
# 42` meets these held-out bounds. They hold for that corpus only: on other
# seeds the 20-contract held-out split misses them now and then (corpus
# seeds 28, 46 and 47 give acc 0.85, seed 34 FPR 0.2), so seeded corpora
# are checked for success and determinism, not against these bounds.
ACCEPTANCE_SEED = 42
MIN_HELDOUT_ACC = 0.90
MAX_HELDOUT_FPR = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "detect_contracts_per_s": "1/s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_tail_ms": "ms",
    "cli_call_s": "s",
    "peak_rss_mb": "MB",
    "detect_acc": "ratio",
    "ok_ratio": "ratio",
}


def prepare(workload: str, seed: int, work: Path, checks: "Checks") -> tuple[dict, dict]:
    """Generate the workload's inputs; returns (worker spec, path -> label)."""
    import inputs
    import worker

    spec = {
        "workload": workload,
        "min_rounds": MIN_ROUNDS[workload],
        "manifest": str(work / "train" / "manifest.jsonl"),
        "model": str(work / "model.sgm"),
        "vocab": str(work / "vocab.json"),
    }
    inputs.generate(work / "train", inputs.TRAIN_PAIRS, inputs.train_seed(seed))
    if workload == "train_large":
        inputs.generate(work / "acceptance", inputs.TRAIN_PAIRS, ACCEPTANCE_SEED)
        accepted = worker.train_call({
            "manifest": str(work / "acceptance" / "manifest.jsonl"),
            "model": str(work / "acceptance" / "model.sgm"),
            "vocab": str(work / "acceptance" / "vocab.json"),
        })
        checks.acceptance(accepted)
        labels = inputs.build_large_units(work / "parts", work / "units", seed)
    else:
        # The model the audit uses, trained the way a user would.
        spec["prep_train"] = worker.train_call(spec)
        labels = inputs.generate(work / "audit", inputs.AUDIT_PAIRS, inputs.audit_seed(seed))
    spec["files"] = sorted(labels)
    return spec, labels


def run_worker(spec: dict, spec_path: Path) -> float:
    """Run a worker to completion; returns the seconds it took to print `ready`."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env={**os.environ, **ONE_THREAD},
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker did not become ready")
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"worker exited {code}")
        return ready_s
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Checks:
    """Correctness of every output; each failed check is kept as a problem."""

    def __init__(self, train_contracts: int):
        from jsonschema import Draft7Validator

        schema = json.loads((ROOT / "docs" / "report.schema.json").read_text(encoding="utf-8"))
        self.validator = Draft7Validator(schema)
        self.train_contracts = train_contracts
        self.labels: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.correct_verdicts = 0
        self._ids: dict[str, set[int]] = {}
        self._train_outputs: dict[str, set[tuple[str, str]]] = {}

    def _ids_in(self, path: str) -> set[int]:
        if path not in self._ids:
            ids: set[int] = set()
            stack = [json.loads(Path(path).read_text(encoding="utf-8"))]
            while stack:
                value = stack.pop()
                if isinstance(value, dict):
                    if "nodeType" in value:
                        ids.add(value["id"])
                    stack.extend(value.values())
                elif isinstance(value, list):
                    stack.extend(value)
            self._ids[path] = ids
        return self._ids[path]

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def detect_call(self, call: dict) -> None:
        files = call["argv"][5:]
        self.attempted += len(files)
        self.failed += max(0, len(files) - len(call["stdout"]))
        seen, any_defective = [], False
        for line in call["stdout"]:
            try:
                report = json.loads(line)
            except ValueError:
                report = line
            errors = [e.message for e in self.validator.iter_errors(report)]
            if errors:
                self.problem(f"report does not match the schema: {errors[0]}")
                continue
            contract = report["contract"]
            seen.append(contract)
            ids = self._ids_in(contract) if contract in self.labels else set()
            for node in report["top_nodes"]:
                if node["node_id"] not in ids:
                    self.problem(f"{contract}: top node {node['node_id']} is not in the input")
            any_defective |= report["verdict"] == "defective"
            self.verdicts += 1
            self.correct_verdicts += report["verdict"] == self.labels.get(contract)
        if seen != files:
            self.problem(f"detect wrote reports for {len(seen)} of {len(files)} inputs, or out of order")
        if call["code"] != (1 if any_defective else 0):
            self.problem(f"detect exited {call['code']}; stderr: {call['stderr'][:3]}")

    def train_call(self, call: dict, counted: bool = True) -> dict:
        """Checks that one `train` call succeeded and gave the same model and
        metrics as every other call on its manifest; returns its metrics.
        `counted` adds its contracts to attempted."""
        if counted:
            skipped = sum(1 for line in call["stderr"] if '"path"' in line)
            self.attempted += self.train_contracts
            self.failed += self.train_contracts if call["code"] != 0 else skipped
        if call["code"] != 0 or not call["stdout"]:
            self.problem(f"train exited {call['code']}; stderr: {call['stderr'][:3]}")
            return {}
        outputs = self._train_outputs.setdefault(call["argv"][2], set())
        outputs.add((call["stdout"][-1], call["model_sha256"]))
        if len(outputs) > 1:
            self.problem("train on the same corpus and seed gave different models or metrics")
        return json.loads(call["stdout"][-1])

    def acceptance(self, call: dict) -> dict:
        """Criterion 5: held-out metrics of `train` on the acceptance corpus."""
        metrics = self.train_call(call, counted=False)
        acc, fpr = metrics.get("acc"), metrics.get("fpr")
        if not isinstance(acc, float) or acc < MIN_HELDOUT_ACC:
            self.problem(f"acceptance corpus: held-out acc {acc} is below {MIN_HELDOUT_ACC}")
        if not isinstance(fpr, float) or fpr > MAX_HELDOUT_FPR:
            self.problem(f"acceptance corpus: held-out FPR {fpr} is above {MAX_HELDOUT_FPR}")
        return metrics


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_ms(detects: list[dict], pct: float) -> tuple[float, str]:
    """The pct-th percentile of verdict latency and how it was taken.

    When every call has 10 or more verdicts beyond the percentile, it is
    taken per call and the median over calls is reported, so a burst of
    machine noise inside one call does not move it. Otherwise it is taken
    over all verdicts of the run.
    """
    per_call = [[g / 1e6 for g in c["line_gap_ns"]] for c in detects]
    if all(len(v) * (100 - pct) / 100 >= 10 for v in per_call):
        sizes = sorted({len(v) for v in per_call})
        value = statistics.median(percentile(v, pct) for v in per_call)
        return value, f"median over {len(per_call)} calls of p{pct} of {sizes} verdicts"
    pooled = [g for v in per_call for g in v]
    if len(pooled) * (100 - pct) / 100 < 10:
        raise ValueError(f"only {len(pooled)} verdicts: fewer than 10 beyond p{pct}")
    return percentile(pooled, pct), f"p{pct} of {len(pooled)} verdicts"


def check_calls(calls: list[dict], checks: Checks) -> list[dict]:
    """Checks every call; returns the held-out metrics of the train calls."""
    train_metrics = []
    for call in calls:
        if call["argv"][0] == "detect":
            checks.detect_call(call)
        else:
            train_metrics.append(checks.train_call(call))
    return train_metrics


def end_to_end(workload: str, spec: dict, result: dict, setup: list[float], checks: Checks, notes: list[str]) -> dict:
    detects = [c for c in result["calls"] if c["argv"][0] == "detect"]
    train_metrics = check_calls(result["calls"], checks) or [spec["prep_metrics"]]
    if not detects or not all(train_metrics):
        checks.problem("a train or detect call is missing or failed")
        return {}
    commands = [c for c in result["calls"] if c["argv"][0] == COMMAND[workload]]

    gaps_ms = [g / 1e6 for c in detects for g in c["line_gap_ns"]]
    try:
        tail, how = tail_ms(detects, TAIL_PERCENTILE[workload])
    except ValueError as exc:
        checks.problem(str(exc))
        return {}
    notes.append(f"verdict_latency_tail_ms is the {how}")
    notes.append(f"cli_call_s is the median of {len(commands)} {COMMAND[workload]} calls")
    notes.append(f"train held-out metrics: {train_metrics[0]}")
    if "prep_train" in spec:
        notes.append(f"the train call that made the model took {spec['prep_train']['wall_ns'] / 1e9:.3f} s")
    return {
        "setup_s": statistics.median(setup),
        "detect_contracts_per_s": statistics.median(len(c["stdout"]) * 1e9 / c["wall_ns"] for c in detects),
        "verdict_latency_p50_ms": statistics.median(gaps_ms),
        "verdict_latency_tail_ms": tail,
        "cli_call_s": statistics.median(c["wall_ns"] / 1e9 for c in commands),
        "peak_rss_mb": result["peak_rss_mb"],
        "detect_acc": checks.correct_verdicts / max(1, checks.verdicts),
        "ok_ratio": 1 - checks.failed / max(1, checks.attempted),
    }


def per_layer(workload: str, result: dict, spans_path: Path, checks: Checks, notes: list[str]) -> dict:
    import layertrace

    cost = {}
    for phase in ("untraced", "traced"):
        check_calls(result[phase], checks)
        main_calls = [c for c in result[phase] if c["argv"][0] == COMMAND[workload]]
        items = sum(1 if c["argv"][0] == "train" else len(c["stdout"]) for c in main_calls)
        cost[phase] = sum(c["wall_ns"] for c in main_calls) / max(1, items)
    metrics = layertrace.summarize(layertrace.read_spans(spans_path))
    metrics["cli.load_model_vocab_ms"] = result["load_model_vocab_ms"]
    metrics["trace.overhead_pct"] = 100 * (cost["traced"] - cost["untraced"]) / cost["untraced"]
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def run(args, work: Path) -> tuple[bool, int, int, dict, list[str]]:
    import inputs

    checks = Checks(train_contracts=2 * inputs.TRAIN_PAIRS)
    spec, labels = prepare(args.workload, args.seed, work, checks)
    checks.labels = labels
    if "prep_train" in spec:
        spec["prep_metrics"] = checks.train_call(spec["prep_train"], counted=False)
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    spec.update(seconds=args.seconds, trace=args.trace, result=str(work / "result.json"), spans=str(spans_path))

    def probe_setup() -> list[float]:
        probe = {**spec, "setup_only": True}
        return [run_worker(probe, work / "setup.json") for _ in range(SETUP_PROBES_EACH_SIDE)]

    setup = probe_setup()
    setup.append(run_worker({**spec, "setup_only": False}, work / "spec.json"))
    setup += probe_setup()
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    notes: list[str] = []
    if args.trace:
        values = per_layer(args.workload, result, spans_path, checks, notes)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = end_to_end(args.workload, spec, result, setup, checks, notes)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return not checks.problems, checks.attempted, checks.failed, metrics, notes + checks.problems


# Per-layer metric names end in their unit.
LAYER_UNIT_SUFFIXES = [
    ("per_s", "1/s"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_ratio", "ratio"),
    ("_bytes", "bytes"),
    ("", "count"),
]


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNIT_SUFFIXES if name.endswith(suffix))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(COMMAND), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "statelens" / "cli.py").is_file():
        print(f"statelens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, notes = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

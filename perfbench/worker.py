"""One workload in a fresh interpreter: set up, signal ready, run, record.

Usage: python3 worker.py SPEC.json

The spec (written by run.py) names the workload, its input files and the
seconds to measure. The worker prints `ready` on stdout once statelens is
imported, the rule table is loaded and, for audit_batch, the model
and vocabulary are loaded and their fingerprints checked. run.py times
that from process start as set-up. With `setup_only` the worker then
exits; otherwise it runs the workload through `statelens.cli.main` and
writes its observations to the spec's `result` path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import statelens.cli  # noqa: E402
from statelens.detector import GcnModel  # noqa: E402
from statelens.feature_extract import default_rules, label_set_from_rules  # noqa: E402
from statelens.graph_pipeline import load_vocabulary  # noqa: E402


class LineClock:
    """Stands in for stdout/stderr: keeps each completed line and when it ended."""

    def __init__(self):
        self.lines: list[str] = []
        self.times_ns: list[int] = []
        self._partial: list[str] = []

    def write(self, text: str) -> int:
        now = time.perf_counter_ns()
        *done, rest = text.split("\n")
        for piece in done:
            self._partial.append(piece)
            self.lines.append("".join(self._partial))
            self.times_ns.append(now)
            self._partial = []
        if rest:
            self._partial.append(rest)
        return len(text)

    def flush(self) -> None:
        pass


def load_model_vocab(model_path: str, vocab_path: str) -> float:
    """The loads and fingerprint check `detect` performs; returns ms."""
    start = time.perf_counter()
    model = GcnModel.load(model_path)
    vocab = load_vocabulary(vocab_path)
    if model.vocab_fingerprint != vocab.fingerprint():
        raise SystemExit("model and vocabulary fingerprints differ")
    return (time.perf_counter() - start) * 1e3


def run_cli(argv: list[str]) -> dict:
    """One `statelens` call in this process, with its output lines timed."""
    out, err = LineClock(), LineClock()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter_ns()
    try:
        code = statelens.cli.main(argv)
    finally:
        end = time.perf_counter_ns()
        sys.stdout, sys.stderr = saved
    gaps, last = [], start
    for t in out.times_ns:
        gaps.append(t - last)
        last = t
    return {
        "argv": argv,
        "code": code,
        "wall_ns": end - start,
        "stdout": out.lines,
        "line_gap_ns": gaps,
        "stderr": err.lines,
    }


def detect_call(spec: dict) -> dict:
    return run_cli(["detect", "--model", spec["model"], "--vocab", spec["vocab"], *spec["files"]])


def train_call(spec: dict) -> dict:
    call = run_cli(["train", "--manifest", spec["manifest"], "--model", spec["model"], "--vocab", spec["vocab"]])
    if call["code"] == 0:
        call["model_sha256"] = hashlib.sha256(Path(spec["model"]).read_bytes()).hexdigest()
    return call


def one_round(spec: dict) -> list[dict]:
    """One closed-loop round: a detect call, or for train_large a train
    call and then a detect call with the model it just wrote."""
    if spec["workload"] != "train_large":
        return [detect_call(spec)]
    train = train_call(spec)
    if "load_model_vocab_ms" not in spec:
        spec["load_model_vocab_ms"] = load_model_vocab(spec["model"], spec["vocab"])
    return [train, detect_call(spec)]


def run_workload(spec: dict) -> dict[str, list[dict]]:
    """Closed loop, one client: round after round until `seconds` have
    passed and each phase has run the workload's minimum number of rounds.

    With tracing the loop alternates an untraced and a traced round, so the
    two phases see the same machine conditions and their difference is the
    tracing overhead.
    """
    tracer = None
    phases: dict[str, list[dict]] = {"calls": []}
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        phases = {"untraced": [], "traced": []}

    start, rounds = time.perf_counter(), 0
    while time.perf_counter() - start < spec["seconds"] or rounds < spec["min_rounds"]:
        for phase, calls in phases.items():
            if phase == "traced":
                tracer.install()
            try:
                calls.extend(one_round(spec))
            finally:
                if phase == "traced":
                    tracer.uninstall()
        rounds += 1
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
    return phases


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    label_set_from_rules(default_rules())
    if spec["workload"] != "train_large":
        spec["load_model_vocab_ms"] = load_model_vocab(spec["model"], spec["vocab"])
    print("ready", flush=True)
    if spec["setup_only"]:
        return

    result = run_workload(spec)
    result["load_model_vocab_ms"] = spec["load_model_vocab_ms"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()

"""Labeled corpora: manifest loading, deterministic splits, synthetic fixtures.

The synthetic generator builds compact AST JSON directly (no compiler
needed) and writes it out: it parses nothing and holds one pair at a time.
Each pair shares one structural skeleton: the defective side has a public
function that writes contract state with no guard at all, the clean side
wraps the same write in a caller-equals-owner check. Names are randomized
per contract so the classifier cannot key on strings.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

# parse_ast_json stays bound here: perfbench/layertrace.py wraps corpus.parse_ast_json.
from .ast_ingest import parse_ast_json, read_document  # noqa: F401
from .errors import BadLabelError, SchemaViolationError, in_file

LABELS = ("defective", "clean")
TRAIN_FRACTION = 0.9  # of each label's items, rounded, on the training side of a split

T = TypeVar("T")


def load_corpus(manifest_path: str | Path) -> list[tuple[str, str]]:
    """Read a JSON-lines manifest of {ast_path, label} records into
    (ast_path, label) pairs, ast_path resolved relative to the manifest.

    Raises OSError, SchemaViolationError for a line that is not a JSON record
    with both fields or whose ast_path no file can have (a NUL byte, a lone
    surrogate), or BadLabelError; each names the line, with the manifest as
    its `path`. The AST files are not opened here.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    records: list[tuple[str, str]] = []
    with in_file(manifest_path):
        for lineno, raw in enumerate(read_document(manifest_path).splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolationError(
                    f"{manifest_path}:{lineno}: manifest line is not JSON: {exc.msg}"
                ) from None
            except ValueError:  # an integer past the interpreter's digit limit
                raise SchemaViolationError(
                    f"{manifest_path}:{lineno}: manifest line holds an integer too long to parse"
                ) from None
            except RecursionError:
                raise SchemaViolationError(f"{manifest_path}:{lineno}: JSON nested too deeply to parse") from None
            if not isinstance(record, dict) or not isinstance(record.get("ast_path"), str) or "label" not in record:
                raise SchemaViolationError(
                    f"{manifest_path}:{lineno}: record needs a string ast_path and a label"
                )
            label = record["label"]
            if label not in LABELS:
                raise BadLabelError(
                    f"{manifest_path}:{lineno}: label must be one of {LABELS}, got {label!r}"
                )
            ast_path = str(base / record["ast_path"])
            try:  # `open` refuses a NUL byte, and a lone surrogate fails to encode
                usable = b"\0" not in os.fsencode(ast_path)
            except UnicodeEncodeError:
                usable = False
            if not usable:
                raise SchemaViolationError(f"{manifest_path}:{lineno}: ast_path {record['ast_path']!r} is no file name")
            records.append((ast_path, label))
    return records


def split_items(items: Sequence[T], labels: Sequence[str], seed: int = 42) -> tuple[list[T], list[T]]:
    """Seeded shuffle, then per label the first round(TRAIN_FRACTION * count)
    items of that label go to training, the rest to the test side. Returns a
    partition (train, test), both sides non-empty given at least 2 items and
    `labels[i]` the label of `items[i]` (the caller's `too-small` check)."""
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)

    quota = {label: round(TRAIN_FRACTION * labels.count(label)) for label in set(labels)}
    train_idx, test_idx = [], []
    for i in order:
        if quota[labels[i]] > 0:
            quota[labels[i]] -= 1
            train_idx.append(i)
        else:
            test_idx.append(i)

    if not test_idx:
        test_idx.append(train_idx.pop())
    if not train_idx:
        train_idx.append(test_idx.pop())
    return [items[i] for i in train_idx], [items[i] for i in test_idx]


def kfold_indices(n: int, folds: int, seed: int = 42) -> list[tuple[list[int], list[int]]]:
    """Fold k tests every `folds`-th item of one seeded shuffle from position
    k (strided slices, not contiguous runs); each item is in one test fold."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    chunks = [order[i::folds] for i in range(folds)]
    out = []
    for k in range(folds):
        test = sorted(chunks[k])
        train = sorted(i for j, chunk in enumerate(chunks) if j != k for i in chunk)
        out.append((train, test))
    return out


# ---------------------------------------------------------------------------
# Synthetic fixture generator
# ---------------------------------------------------------------------------

_VERBS = ["set", "sync", "apply", "push", "commit", "update", "write", "move"]
_NOUNS = ["Balance", "Ledger", "Quota", "Stake", "Share", "Credit", "Supply", "Reserve"]
_CONTRACT_SUFFIX = ["Vault", "Pool", "Market", "Router", "Exchange", "Bridge"]
_BENIGN_KINDS = ["getter", "compute", "loop"]


_IdGen = Callable[[], int]  # each call returns the next node id: 1, 2, 3, ...


def _src(node_id: int) -> str:
    # Synthetic fixtures have no real source text; spans are distinct and valid.
    return f"{node_id * 16}:12:0"


def _node(node_id: int, node_type: str, name: str | None = None, **fields: Any) -> dict:
    obj: dict[str, Any] = {"id": node_id, "nodeType": node_type}
    if name is not None:
        obj["name"] = name
    obj["src"] = _src(node_id)
    obj.update(fields)
    return obj


class _Names:
    """Per-contract identifier pool drawn from one RNG, collision free."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice(_VERBS) + self.rng.choice(_NOUNS)
            name = name[0].lower() + name[1:]
            if name not in self.used:
                self.used.add(name)
                return name

    def contract(self) -> str:
        return self.rng.choice(_NOUNS) + self.rng.choice(_CONTRACT_SUFFIX)


def _var_decl(gen: _IdGen, name: str, type_string: str, state: bool, value: dict | None = None) -> dict:
    fields: dict[str, Any] = {
        "stateVariable": state,
        "visibility": "internal",
        "typeDescriptions": {"typeString": type_string},
    }
    if value is not None:
        fields["value"] = value
    return _node(gen(), "VariableDeclaration", name, **fields)


def _identifier(gen: _IdGen, name: str, decl_id: int) -> dict:
    return _node(gen(), "Identifier", name, referencedDeclaration=decl_id)


def _literal(gen: _IdGen, value: str) -> dict:
    return _node(gen(), "Literal", kind="number", value=value)


def _binary(gen: _IdGen, operator: str, left: dict, right: dict) -> dict:
    return _node(
        gen(), "BinaryOperation", operator=operator, leftExpression=left, rightExpression=right
    )


@dataclass(frozen=True)
class _PairSpec:
    """Structure choices shared by both halves of a minimal pair."""

    extra_state_vars: tuple[str, ...]  # initializer values, e.g. ("5", "120")
    benign_kinds: tuple[str, ...]
    benign_targets: tuple[int, ...]  # index into [owner, *extras] per benign fn


def _draw_spec(rng: random.Random) -> _PairSpec:
    extras = tuple(str(rng.randint(1, 900)) for _ in range(rng.randint(0, 2)))
    kinds = tuple(rng.choice(_BENIGN_KINDS) for _ in range(rng.randint(0, 2)))
    targets = tuple(rng.randrange(1 + len(extras)) for _ in kinds)
    return _PairSpec(extra_state_vars=extras, benign_kinds=kinds, benign_targets=targets)


def _benign_function(gen: _IdGen, names: _Names, kind: str, state_var: dict) -> dict:
    if kind == "getter":
        ret_param = _var_decl(gen, "", "uint256", state=False)
        body = _node(
            gen(),
            "Return",
            expression=_identifier(gen, state_var["name"], state_var["id"]),
        )
        return _node(
            gen(),
            "FunctionDefinition",
            names.fresh(),
            visibility="public",
            stateMutability="view",
            parameters=_node(gen(), "ParameterList", parameters=[]),
            returnParameters=_node(gen(), "ParameterList", parameters=[ret_param]),
            body=_node(gen(), "Block", statements=[body]),
        )
    if kind == "compute":
        a = _var_decl(gen, names.fresh(), "uint256", state=False)
        b = _var_decl(gen, names.fresh(), "uint256", state=False)
        expr = _binary(
            gen, "+", _identifier(gen, a["name"], a["id"]), _identifier(gen, b["name"], b["id"])
        )
        return _node(
            gen(),
            "FunctionDefinition",
            names.fresh(),
            visibility="internal",
            stateMutability="pure",
            parameters=_node(gen(), "ParameterList", parameters=[a, b]),
            returnParameters=_node(
                gen(), "ParameterList", parameters=[_var_decl(gen, "", "uint256", state=False)]
            ),
            body=_node(gen(), "Block", statements=[_node(gen(), "Return", expression=expr)]),
        )
    # "loop": counts up to a parameter inside a while loop; writes only locals.
    limit = _var_decl(gen, names.fresh(), "uint256", state=False)
    counter = _var_decl(gen, names.fresh(), "uint256", state=False)
    decl_stmt = _node(
        gen(),
        "VariableDeclarationStatement",
        declarations=[counter],
        initialValue=_literal(gen, "0"),
    )
    step = _node(
        gen(),
        "ExpressionStatement",
        expression=_node(
            gen(),
            "Assignment",
            operator="=",
            leftHandSide=_identifier(gen, counter["name"], counter["id"]),
            rightHandSide=_binary(
                gen,
                "+",
                _identifier(gen, counter["name"], counter["id"]),
                _literal(gen, "1"),
            ),
        ),
    )
    loop = _node(
        gen(),
        "WhileStatement",
        condition=_binary(
            gen,
            "<",
            _identifier(gen, counter["name"], counter["id"]),
            _identifier(gen, limit["name"], limit["id"]),
        ),
        body=_node(gen(), "Block", statements=[step]),
    )
    ret = _node(gen(), "Return", expression=_identifier(gen, counter["name"], counter["id"]))
    return _node(
        gen(),
        "FunctionDefinition",
        names.fresh(),
        visibility="internal",
        stateMutability="pure",
        parameters=_node(gen(), "ParameterList", parameters=[limit]),
        returnParameters=_node(
            gen(), "ParameterList", parameters=[_var_decl(gen, "", "uint256", state=False)]
        ),
        body=_node(gen(), "Block", statements=[decl_stmt, loop, ret]),
    )


def _build_contract_doc(spec: _PairSpec, rng: random.Random, guarded: bool) -> dict:
    gen: _IdGen = itertools.count(1).__next__
    names = _Names(rng)

    owner = _var_decl(gen, names.fresh(), "address", state=True)
    balances = _var_decl(gen, names.fresh(), "mapping(address => uint256)", state=True)
    extras = [
        _var_decl(gen, names.fresh(), "uint256", state=True, value=_literal(gen, init))
        for init in spec.extra_state_vars
    ]
    readable = [owner, *extras]
    benign = [
        _benign_function(gen, names, kind, readable[target])
        for kind, target in zip(spec.benign_kinds, spec.benign_targets)
    ]

    caller = _var_decl(gen, names.fresh(), "address", state=False)
    to = _var_decl(gen, names.fresh(), "address", state=False)
    amount = _var_decl(gen, names.fresh(), "uint256", state=False)
    write = _node(
        gen(),
        "ExpressionStatement",
        expression=_node(
            gen(),
            "Assignment",
            operator="=",
            leftHandSide=_node(
                gen(),
                "IndexAccess",
                baseExpression=_identifier(gen, balances["name"], balances["id"]),
                indexExpression=_identifier(gen, to["name"], to["id"]),
            ),
            rightHandSide=_identifier(gen, amount["name"], amount["id"]),
        ),
    )
    if guarded:
        statement = _node(
            gen(),
            "IfStatement",
            condition=_binary(
                gen,
                "==",
                _identifier(gen, caller["name"], caller["id"]),
                _identifier(gen, owner["name"], owner["id"]),
            ),
            trueBody=_node(gen(), "Block", statements=[write]),
        )
    else:
        statement = write
    target = _node(
        gen(),
        "FunctionDefinition",
        names.fresh(),
        visibility="public",
        stateMutability="nonpayable",
        parameters=_node(gen(), "ParameterList", parameters=[caller, to, amount]),
        returnParameters=_node(gen(), "ParameterList", parameters=[]),
        body=_node(gen(), "Block", statements=[statement]),
    )

    contract_name = names.contract()
    contract = _node(
        gen(),
        "ContractDefinition",
        contract_name,
        contractKind="contract",
        nodes=[owner, balances, *extras, *benign, target],
    )
    return _node(
        gen(),
        "SourceUnit",
        absolutePath=f"{contract_name}.sol",
        compilerVersion="0.8.19",
        nodes=[contract],
    )


def synth_generate(n_pairs: int, seed: int, out_dir: str | Path) -> None:
    """Write n_pairs minimal pairs (defective, clean), deterministic per seed,
    to out_dir: one AST JSON per contract, manifest.jsonl and a README
    naming each pair's contracts."""
    readme_lines = [
        "# Synthetic contract corpus",
        "",
        f"{n_pairs} minimal pairs generated from seed {seed}.",
        "Each defective contract has a public function writing contract state",
        "with no validation; its clean twin wraps the same write in a",
        "caller-equals-owner check. Names are randomized, structure is shared.",
        "",
    ]
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for i in range(n_pairs):
        pair_rng = random.Random(seed * 1_000_003 + i)
        pair_spec = _draw_spec(pair_rng)
        names = []
        for label, guarded in (("defective", False), ("clean", True)):
            doc = _build_contract_doc(pair_spec, pair_rng, guarded)
            file_name = f"pair{i:04d}_{label}.ast.json"
            (out_path / file_name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
            manifest_lines.append(json.dumps({"ast_path": file_name, "label": label}))
            names.append(doc["nodes"][0]["name"])  # the ContractDefinition
        readme_lines.append(
            f"- pair{i:04d}: defective={names[0]} clean={names[1]} "
            f"(state vars: {2 + len(pair_spec.extra_state_vars)}, "
            f"benign functions: {len(pair_spec.benign_kinds)})"
        )
    (out_path / "manifest.jsonl").write_text("\n".join(manifest_lines) + "\n", "utf-8")
    (out_path / "README.md").write_text("\n".join(readme_lines) + "\n", "utf-8")

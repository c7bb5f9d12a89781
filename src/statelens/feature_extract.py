"""Classify AST nodes into dependency categories and emit node/edge tuples.

Five node roles drive the contract graph: Declaration (inputs, outputs,
state variables), Expression (logic and computation), Control (execution
flow), Data (parts depending on other parts' state or output), and
Function (relationships between functions). The nodeType-to-category
mapping ships as an editable rule file so experiments can vary it; see
``data/default.rules`` for the format.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .ast_ingest import AstNode, AstTree, read_document, subtree_preorder
from .errors import MalformedJsonError, SchemaViolationError, in_file


class DependencyCategory(Enum):
    DECLARATION = "Declaration"
    EXPRESSION = "Expression"
    CONTROL = "Control"
    DATA = "Data"
    FUNCTION = "Function"
    __hash__ = object.__hash__  # members are singletons; Enum's __hash__ is Python code


class EdgeType(Enum):
    AST_CHILD = "AstChild"
    CONTROL_FLOW = "ControlFlow"
    DATA_DEP = "DataDep"
    FUNC_CALL = "FuncCall"
    DECL_REF = "DeclRef"


# One NodeTuple per graph node, one EdgeTuple per edge: slotted, not frozen,
# since a frozen dataclass sets each field through object.__setattr__.
@dataclass(slots=True)
class NodeTuple:
    n_id: int
    n_type: str
    token: str  # the type; a Literal's token is `Literal:<kind>`
    category: DependencyCategory


@dataclass(slots=True)
class EdgeTuple:
    e_s: int
    e_e: int
    e_t: EdgeType


@dataclass(frozen=True)
class Rule:
    pattern: str
    attrs: tuple[tuple[str, str], ...]
    category: DependencyCategory


# (node_type, category) pairs a graph node must match to survive pruning
LabelSet = frozenset[tuple[str, DependencyCategory]]


class RuleTable:
    """An ordered rule list compiled per nodeType: first match wins, and a
    node costs one lookup of its type plus the predicates of that type's
    candidate rules.

    The candidates for a nodeType are the rules whose pattern matches it,
    in rule order, cut after the first one without predicates (it always
    matches, so no later rule can decide). They are found the first time
    the type is seen, so loading a table matches no pattern. Iterating the
    table yields its rules in order.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules = tuple(rules)
        self._candidates: dict[str, tuple[Rule, ...]] = {}

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def candidates(self, node_type: str) -> tuple[Rule, ...]:
        found = self._candidates.get(node_type)
        if found is None:
            matching = []
            for rule in self.rules:
                if fnmatch.fnmatchcase(node_type, rule.pattern):
                    matching.append(rule)
                    if not rule.attrs:
                        break
            found = self._candidates[node_type] = tuple(matching)
        return found

    def category(
        self, node_type: str, attributes: Callable[[], dict[str, str]], ref_kind: str | None = None
    ) -> DependencyCategory | None:
        """The category of the first rule whose pattern matches `node_type`
        and whose every `key=value` predicate holds, with `ref_kind` (when
        not None) standing in for the node's own `ref_kind` attribute.
        `attributes()` gives the node's attributes; it is called at most
        once, and only for a predicate that `ref_kind` does not answer."""
        attrs = None
        for rule in self.candidates(node_type):
            for key, value in rule.attrs:
                if key == "ref_kind" and ref_kind is not None:
                    actual = ref_kind
                else:
                    attrs = attributes() if attrs is None else attrs
                    actual = attrs.get(key)
                if actual != value:
                    break
            else:
                return rule.category
        return None


def parse_rules(text: str) -> list[Rule]:
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise SchemaViolationError(f"rules line {lineno}: missing '->' in {raw!r}")
        lhs, _, rhs = line.partition("->")
        parts = lhs.split()
        if not parts:
            raise SchemaViolationError(f"rules line {lineno}: missing node type pattern")
        pattern, predicates = parts[0], parts[1:]
        attrs = []
        for predicate in predicates:
            if "=" not in predicate:
                raise SchemaViolationError(
                    f"rules line {lineno}: predicate {predicate!r} is not key=value"
                )
            key, _, value = predicate.partition("=")
            attrs.append((key, value))
        try:
            category = DependencyCategory(rhs.strip())
        except ValueError:
            raise SchemaViolationError(
                f"rules line {lineno}: unknown category {rhs.strip()!r}"
            ) from None
        rules.append(Rule(pattern=pattern, attrs=tuple(attrs), category=category))
    return rules


def load_rules(path: str | Path) -> list[Rule]:
    """The rules in a UTF-8 file; undecodable bytes or a file without rules
    raise SchemaViolationError. Every fault carries the file as its `path`."""
    with in_file(path):
        try:
            rules = parse_rules(read_document(path))
        except MalformedJsonError as exc:
            raise SchemaViolationError(str(exc)) from None
        if not rules:  # it would leave every contract without a graph
            raise SchemaViolationError(f"{path}: no rules")
    return rules


@lru_cache(maxsize=1)
def default_rules() -> RuleTable:
    text = resources.files("statelens").joinpath("data/default.rules").read_text("utf-8")
    return RuleTable(parse_rules(text))


def label_set_from_rules(rules: RuleTable | None = None) -> LabelSet:
    """All concrete (node_type, category) pairs the rule table can produce."""
    rules = default_rules() if rules is None else rules
    return frozenset(
        (rule.pattern, rule.category)
        for rule in rules
        if not any(ch in rule.pattern for ch in "*?[")
    )


def referenced_declaration(node: AstNode) -> int | None:
    """`int()` of the node's `referencedDeclaration` attribute, None where
    that fails. A JSON integer is that integer, so only another value needs
    the attribute built."""
    raw = node.obj.get("referencedDeclaration")
    if raw is None or (isinstance(raw, int) and not isinstance(raw, bool)):
        return raw
    raw = node.attributes.get("referencedDeclaration")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def reference_kind(tree: AstTree, node: AstNode) -> str | None:
    """Kind of the node's referencedDeclaration target, when it is in the tree."""
    target_id = referenced_declaration(node)
    if target_id is None:
        return None
    target = tree.nodes.get(target_id)
    if target is None:
        return None
    return _REFERENCE_KINDS.get(target.node_type, "other")


_REFERENCE_KINDS = {
    "VariableDeclaration": "variable",
    "StateVariableDeclaration": "variable",
    "FunctionDefinition": "function",
    "ModifierDefinition": "modifier",
    "EventDefinition": "event",
}


def extract_node_tuples(tree: AstTree, rules: RuleTable | None = None) -> list[NodeTuple]:
    """One tuple per categorized node, in DFS preorder (the order of
    `tree.nodes`); `rules` defaults to `default_rules()`.

    A node's token is its type, and a Literal's is `Literal:<kind>`, the
    class the compiler puts in its `kind` field. Names never enter it:
    renaming an identifier changes no feature."""
    table = default_rules() if rules is None else rules
    tuples: list[NodeTuple] = []
    for node in tree.nodes.values():
        candidates = table.candidates(node.node_type)
        if not candidates:
            continue
        if candidates[0].attrs:  # predicates decide; resolve the reference once
            category = table.category(node.node_type, lambda: node.attributes, reference_kind(tree, node))
            if category is None:
                continue
        else:
            category = candidates[0].category
        node_type = node.node_type
        token = "Literal:" + node.attributes.get("kind", "") if node_type == "Literal" else node_type
        tuples.append(NodeTuple(node.id, node_type, token, category))
    return tuples


def _first_categorized(tree: AstTree, root_id: int, categorized: set[int]) -> int | None:
    """The first categorized node of the subtree at `root_id`, in preorder."""
    for node in subtree_preorder(tree, root_id):
        if node.id in categorized:
            return node.id
    return None


def _resolve_callee(tree: AstTree, call: AstNode) -> int | None:
    """The FunctionDefinition a FunctionCall invokes, when it lives in this tree."""
    for child_id in call.children:
        target_id = referenced_declaration(tree.nodes[child_id])
        if target_id is None:
            continue
        target = tree.nodes.get(target_id)
        if target is not None and target.node_type == "FunctionDefinition":
            return target_id
    return None


_EDGE_TYPE_OF = {t.value: t for t in EdgeType}


def extract_edges(tree: AstTree, tuples: list[NodeTuple]) -> list[EdgeTuple]:
    """Typed directed edges between categorized nodes, sorted by (e_s, e_e, e_t):
    no self-loop and no duplicate, so no later stage checks for either.

    AstChild edges project the tree onto categorized nodes: each node links
    to its nearest categorized ancestor, and nodes with none (top-level
    contract members, whose ancestors are all uncategorized scaffolding)
    link to the first categorized node in preorder. The projection is
    therefore always a single tree, so pruning uncategorized syntax never
    disconnects a function from its contract.
    """
    nodes, parents = tree.nodes, tree.parents
    categorized = {t.n_id for t in tuples}
    first_id = tuples[0].n_id if tuples else None
    # (source, target, EdgeType value): sorting these sorts by (e_s, e_e, e_t)
    edges: set[tuple[int, int, str]] = set()

    for t in tuples:
        node_id = t.n_id
        node = nodes[node_id]

        ancestor = parents.get(node_id)
        while ancestor is not None and ancestor not in categorized:
            ancestor = parents.get(ancestor)
        edges.add((first_id if ancestor is None else ancestor, node_id, "AstChild"))

        target = referenced_declaration(node)
        if target is not None:
            edges.add((node_id, target, "DeclRef"))

        if node.node_type == "FunctionCall":
            callee = _resolve_callee(tree, node)
            if callee is not None:
                edges.add((node_id, callee, "FuncCall"))

        if t.category is DependencyCategory.CONTROL:
            for child_id in node.children:
                first = _first_categorized(tree, child_id, categorized)
                if first is not None:
                    edges.add((node_id, first, "ControlFlow"))

        if node.node_type == "Assignment" and node.children:
            lhs, rhs_roots = node.children[0], node.children[1:]
            target = _first_categorized(tree, lhs, categorized)
            if target is not None:
                for rhs_root in rhs_roots:
                    for descendant in subtree_preorder(tree, rhs_root):
                        if descendant.node_type == "Identifier":
                            edges.add((descendant.id, target, "DataDep"))

    # the one rule every kind keeps: an edge joins two distinct categorized nodes
    return [EdgeTuple(s, e, _EDGE_TYPE_OF[t]) for s, e, t in sorted(edges)
            if s != e and s in categorized and e in categorized]

"""statelens: unguarded state-change detection for smart contracts.

Pipeline: compiler AST JSON -> dependency-categorized node/edge tuples ->
pruned contract graph -> fixed random embeddings -> symmetrically
normalized adjacency (dense on small graphs, sparse on large ones) ->
two-layer GCN with a binary readout.
"""

from .ast_ingest import AstNode, AstTree, parse_ast_json, span_to_source, validate_tree
from .corpus import LabeledContract, load_corpus, split, synth_generate
from .detector import DetectionReport, GcnModel, Metrics, evaluate, localize, predict, train
from .feature_extract import (
    DependencyCategory,
    EdgeTuple,
    EdgeType,
    LabelSet,
    NodeTuple,
    categorize_node,
    extract_edges,
    extract_node_tuples,
)
from .gcn_core import ForwardTrace, GcnParams, TrainConfig, forward, loss_and_grads
from .graph_pipeline import (
    ContractGraph,
    NormalizedGraph,
    Vocabulary,
    build_graph,
    build_vocabulary,
    embed_nodes,
    normalize,
    optimize_graph,
    process_contract,
)

__version__ = "0.1.0"

"""statelens: unguarded state-change detection for smart contracts.

Pipeline: compiler AST JSON -> dependency-categorized node/edge tuples ->
pruned contract graph -> fixed random embeddings -> symmetrically
normalized adjacency (dense on small graphs, sparse on large ones) ->
two-layer GCN with a binary readout.
"""

from .ast_ingest import AstNode, AstTree, parse_ast_json, validate_tree
from .corpus import LabeledContract, load_corpus, split_items, synth_generate
from .detector import DetectionReport, GcnModel, Metrics, evaluate, predict, train
from .feature_extract import (
    DependencyCategory,
    EdgeTuple,
    EdgeType,
    LabelSet,
    NodeTuple,
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
)

__version__ = "0.1.0"

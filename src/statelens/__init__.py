"""statelens: unguarded state-change detection for smart contracts.

Pipeline: compiler AST JSON -> dependency-categorized node/edge tuples ->
pruned contract graph -> one-hot node-type features -> symmetrically
normalized adjacency (dense on small graphs, sparse on large ones) ->
two-layer GCN with a binary readout.
"""

__version__ = "0.1.0"

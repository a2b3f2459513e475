"""The layer-to-metric map: which traced functions should move which
end-to-end metric on which workload, and which workloads bypass them.

The coverage check reads this table: every function must record calls on
each workload in `expect`, and none on each workload in `bypass`.
"""

from __future__ import annotations

from dataclasses import dataclass

WITH_EDGE, CORPUS, COLOUR, GEN = "with-edge-large", "corpus-12", "colour-sweep", "gen-exhaustive"


@dataclass(frozen=True)
class Row:
    functions: tuple[str, ...]
    should_move: str
    expect: tuple[str, ...]
    bypass: tuple[str, ...]


# Rows follow the layer table of the benchmark's design; a row of that
# table is split here where its functions run on different workloads.
ROWS = (
    Row(("treesplit.bipyramid_poles", "treesplit.fan_paths", "embed.tri_partition"),
        "ops_per_s and op_ms.p50 on with-edge-large; a little on corpus-12",
        (WITH_EDGE, CORPUS), (COLOUR, GEN)),
    Row(("structure.is_multi4", "ugraph.Graph.simple_cycles"),
        "ops_per_s on colour-sweep; setup_s on with-edge-large",
        (COLOUR, WITH_EDGE, CORPUS), (GEN,)),
    Row(("colorizer.color_beta",),
        "colour-sweep; corpus-12",
        (COLOUR, CORPUS, WITH_EDGE), (GEN,)),
    # only the opposite-corner base colouring calls it, so not on colour-sweep
    Row(("colorizer.color_beta_4cycle",),
        "colour-sweep; corpus-12",
        (CORPUS,), (GEN,)),
    # the pipelines never call it: only colour-sweep's own check does
    Row(("colorizer.verify_coloring",),
        "colour-sweep; corpus-12",
        (COLOUR,), (GEN,)),
    Row(("treesplit.tree_partition_solve", "treesplit.base_coloring_candidates",
         "treesplit.extend_coloring_single_path"),
        "op_ms.tail on corpus-12",
        (CORPUS, WITH_EDGE), (COLOUR, GEN)),
    # with-edge-large's edges need no path-sequence extension
    Row(("treesplit.extend_coloring_path_sequence",),
        "op_ms.tail on corpus-12",
        (CORPUS,), (COLOUR, GEN)),
    Row(("embed.canonical_form", "embed.EmbeddedGraph.build", "embed.trace_faces",
         "gen.split_vertex"),
        "ops_per_s on gen-exhaustive",
        (GEN,), (COLOUR,)),
    Row(("embed.dual", "duality.primal_edge_of", "duality.tree_partition_to_hamilton",
         "duality.verify_hamilton", "treesplit.verify_tree_partition", "gen.big_vertex_graph"),
        "with-edge-large and corpus-12",
        (WITH_EDGE, CORPUS), (GEN,)),
    # pipeline entry points: traced so the spans above get their parents
    Row(("duality.hamilton_avoiding_edge", "treesplit.tree_partition_with_edge"),
        "with-edge-large and corpus-12 (glue between the layers above)",
        (WITH_EDGE, CORPUS), (COLOUR, GEN)),
    Row(("duality.hamilton_face_sparse", "duality.hamilton_to_tree_partition",
         "duality.face_avoidance_report", "treesplit.tree_partition_face_sparse"),
        "corpus-12 (glue between the layers above)",
        (CORPUS,), (WITH_EDGE, COLOUR, GEN)),
    Row(("gen.gen_triangulations",),
        "ops_per_s on gen-exhaustive (glue between the layers above)",
        (GEN,), (WITH_EDGE, CORPUS, COLOUR)),
)

TRACED = tuple(f for row in ROWS for f in row.functions)


def coverage(workload: str, calls) -> tuple[list[str], list[str]]:
    """(functions with no calls where the table expects some, functions
    called on a workload the table says bypasses them)."""
    missed, bypassed = [], []
    for row in ROWS:
        for f in row.functions:
            if workload in row.expect and calls.get(f, 0) == 0:
                missed.append(f)
            if workload in row.bypass and calls.get(f, 0) > 0:
                bypassed.append(f)
    return missed, bypassed

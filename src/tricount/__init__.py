"""Streaming triangle counting toolkit.

Exact counting and edge statistics (graph), replayable edge streams and
seed derivation (stream), unbiased and min-of-repetitions sampling
estimators with one-pass random-order variants and their space accounting
(estimators), graph and gadget generators with known counts (generators),
and a command line harness (cli).
"""

__version__ = "0.1.0"

from .graph import (AdjacencyGraph, TriangleStats, EdgePartition, GraphError,
                    DuplicateEdgeError, canonical_edge, count_triangles_exact,
                    triangle_stats, classify_edges)
from .edgelist import EdgeListParseError, write_edge_list
from .stream import (Order, EdgeStream, open_stream, order_rng, sampler_rng,
                     trial_rng, SourceChangedError)
from .estimators import (Algorithm, EstimatorParams, EstimateReport,
                         choose_p_alg1, choose_p_alg2, choose_repetitions,
                         alg1_two_pass, alg1_one_pass_random, alg2_two_pass,
                         alg2_one_pass_random)
from .generators import (GeneratorError, gen_planted, gen_complete,
                         gen_tripartite, blow_up, gen_disjointness,
                         gen_disjointness_random)

__all__ = [
    "AdjacencyGraph", "TriangleStats", "EdgePartition", "GraphError",
    "DuplicateEdgeError", "canonical_edge", "count_triangles_exact",
    "triangle_stats", "classify_edges",
    "EdgeListParseError", "write_edge_list",
    "Order", "EdgeStream", "open_stream", "order_rng", "sampler_rng",
    "trial_rng", "SourceChangedError",
    "Algorithm", "EstimatorParams", "EstimateReport",
    "choose_p_alg1", "choose_p_alg2", "choose_repetitions",
    "alg1_two_pass", "alg1_one_pass_random", "alg2_two_pass",
    "alg2_one_pass_random",
    "GeneratorError", "gen_planted", "gen_complete", "gen_tripartite",
    "blow_up", "gen_disjointness", "gen_disjointness_random",
]

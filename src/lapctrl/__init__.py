"""Graph families, Laplacian spectra, and single-input Laplacian controllability."""

from .graph_core import (Graph, DegreeSequence, conjugate, degree_sequence,
                         gen_antiregular, gen_complete, gen_path, gen_threshold,
                         graph_from_json, graph_to_dot, graph_to_json,
                         is_connected, is_graphical, laplacian,
                         random_connected_graph, trace_of)
from .spectral import (ConvergenceError, EigDecomp, Eigenspace,
                       antiregular_modal, antiregular_spectrum,
                       check_majorization, default_gtol, eig_sym, eigenspaces,
                       path_modal)
from .controllability import (GRAMIAN_EIG_FLOOR, GramianResult, Verdict,
                              controllable_vertices, decide, gramian_check,
                              input_vector, kalman_rank_exact, pbh_verdict)
from .compose import (ChainSpec, CompositeSpec, HypothesisNotMet, OutOfSupport,
                      append_path, chain_antiregular, cj_contains, cj_index,
                      composite, composite_modal, path_split_controllable,
                      predict_composite, valid_chain_input)

__version__ = "0.1.0"

__all__ = [
    "Graph", "DegreeSequence", "conjugate", "degree_sequence",
    "gen_antiregular", "gen_complete", "gen_path", "gen_threshold",
    "graph_from_json", "graph_to_dot", "graph_to_json", "is_connected",
    "is_graphical", "laplacian", "random_connected_graph", "trace_of",
    "ConvergenceError", "EigDecomp", "Eigenspace", "antiregular_modal",
    "antiregular_spectrum", "check_majorization", "default_gtol", "eig_sym",
    "eigenspaces", "path_modal",
    "GRAMIAN_EIG_FLOOR", "GramianResult", "Verdict", "controllable_vertices",
    "decide", "gramian_check", "input_vector", "kalman_rank_exact",
    "pbh_verdict",
    "ChainSpec", "CompositeSpec", "HypothesisNotMet", "OutOfSupport",
    "append_path", "chain_antiregular", "cj_contains", "cj_index",
    "composite", "composite_modal", "path_split_controllable",
    "predict_composite", "valid_chain_input",
    "__version__",
]

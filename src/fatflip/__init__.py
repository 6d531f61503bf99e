"""Fatgraphs with tails, flips, markings and their combinatorial cocycles."""

from .abelian import (KElement, RankMismatchError, SymWedge, Wedge2, Wedge3,
                      sym_pair, wedge2, wedge3)
from .fatgraph import (BoundaryNumberError, DisconnectedGraphError, FatGraph,
                       FatGraphError, HalfEdgeStructureError, OrientedEdge,
                       UnivalentVertexError, ValenceError, canonical_iso, oe)
from .flips import (ClosureError, FlipContext, FlipError, FlipPath,
                    PathStepError, apply_path, commuting_loop,
                    concat_paths, flip, flippable, flippable_edges,
                    involution_pair, pentagon_path, reverse_path)
from .markings import (CoherenceError, InversionError, Marking, MarkingError,
                       SurjectivityError, SymplecticForm, canonical_h_marking,
                       check_marking, is_topological_h, propagate,
                       propagate_path)
from .cocycles import (CocycleConditionError, cocycle_j, cocycle_m,
                       cocycle_s, compose_closed, induced_k_automorphism,
                       path_sum, path_sums, verify_cocycle_condition)
from .words import FreeAutomorphism, WordError, parse_word, reduce_word, word_str
from .earle import (d2, d_surface, d_differences, earle_f, h_str,
                    morita_normal_form, project, reference_bp_automorphism)
from .graphio import GraphParseError, format_graph, parse_graph

__version__ = "0.1.0"

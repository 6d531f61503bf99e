"""Seeded generators of valid test inputs.

Graphs are grown from the one-vertex rose of a genus-g surface: attach
the tail, peel trivalent vertices off the rose's one vertex until it is
trivalent too (no split changes the boundary count or the genus), then
shuffle with random flips.  Coherent markings put the columns of a
random integer matrix on the edges off a spanning tree and fill in the
tree edges by coherence, so the axioms hold by construction.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional

from . import intlinalg
from .fatgraph import FatGraph, OrientedEdge
from .flips import FlipError, FlipPath, _walk, flippable_edges
from .markings import Marking, _fill

Rng = random.Random


def rose_vertices(genus: int) -> List[OrientedEdge]:
    """Cyclic order (x1, y1, ~x1, ~y1, ..., xg, yg, ~xg, ~yg)."""
    order = []
    for i in range(genus):
        x, y = 2 * i + 1, 2 * i + 2
        order += [OrientedEdge(x, 1), OrientedEdge(y, 1),
                  OrientedEdge(x, -1), OrientedEdge(y, -1)]
    return order


def standard_surface_graph(genus: int,
                           rng: Optional[Rng] = None) -> FatGraph:
    """A trivalent tailed fatgraph of the given genus with one boundary.

    The rose's one vertex is peeled: each split leaves a trivalent row
    and the rest, the only vertex above valence 3, to split next.
    Deterministic without an rng; with one, each split starts at a
    random half-edge of the rest (the graph is still valid).
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    rows = [[OrientedEdge(0, -1)]]
    rest = deque([OrientedEdge(0, 1)] + rose_vertices(genus))
    # split until trivalent: (h1, ..., hk) -> (h1, h2, n) + (~n, h3, ..., hk)
    for x in range(2 * genus + 1, 6 * genus - 1):
        if rng:
            # pick the vertex to split among the one there is: the draw
            # is part of every seeded stream, so seeds keep their graphs
            rng.randrange(1)
            rest.rotate(-rng.randrange(len(rest)))
        rows.append([rest.popleft(), rest.popleft(), OrientedEdge(x, 1)])
        rest.appendleft(OrientedEdge(x, -1))
    graph = FatGraph(rows + [list(rest)], OrientedEdge(0, 1))
    graph.validate()
    if graph.boundary_number() != 1 or graph.genus() != genus:
        raise AssertionError("rose construction produced a wrong surface")
    return graph


def random_flip_path(graph: FatGraph, steps: int, rng: Rng) -> FlipPath:
    """Flip an edge drawn from the graph reached, ``steps`` times."""
    ids = flippable_edges(graph)
    if steps > 0 and not ids:
        raise FlipError("the graph has no flippable edge")
    return _walk(graph, lambda i: rng.choice(ids), steps, ids)


def random_graph(genus: int, rng: Rng, *, extra_flips: int = 6) -> FatGraph:
    g = standard_surface_graph(genus, rng)
    if extra_flips:
        g = random_flip_path(g, extra_flips, rng).end
    return g


def random_gl(rank: int, rng: Rng) -> intlinalg.Matrix:
    """A random element of GL(rank, Z): a product of 12 elementary moves."""
    m = intlinalg.identity(rank)
    for _ in range(12):
        kind = rng.randrange(3)
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if kind == 0 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def random_coherent_marking(graph: FatGraph, rank: int, rng: Rng) -> Marking:
    """A surjective marking satisfying Inversion and Coherence.

    Values are L([e]) for a random surjection L on the edge classes,
    built as the top rows of a random GL element (this needs rank at
    most E - V + 1, the rank of the class group; 2g on one boundary).
    The edges off the spanning tree are a free basis of the classes, so
    they take the columns of L and coherence fills in the tree.
    """
    free = len(graph._spanning_tree()[1])
    if not 1 <= rank <= free:
        raise ValueError("rank %d is not between 1 and the edge class "
                         "rank %d" % (rank, free))
    l_map = random_gl(free, rng)[:rank]
    return _fill(graph, rank, intlinalg.transpose(l_map))

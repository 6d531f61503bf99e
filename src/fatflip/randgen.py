"""Seeded generators of valid test inputs.

Graphs are grown from the one-vertex rose of a genus-g surface: attach
the tail, split high-valence vertices until everything away from the
tail vertex is trivalent (none of which changes the boundary count or
the genus), then shuffle with random flips.  Coherent markings come from
integer linear maps applied to the edge classes, so the axioms hold by
construction.
"""

from __future__ import annotations

import random
from typing import List, Optional

from . import intlinalg
from .abelian import KElement
from .fatgraph import FatGraph, OrientedEdge
from .flips import FlipPath, flip, flippable_edges
from .markings import Marking, _edge_class_space

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

    Deterministic without an rng; with one, the vertex splittings are
    randomized (the resulting graph is still valid by construction).
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    verts: List[List[OrientedEdge]] = [
        [OrientedEdge(0, -1)],
        [OrientedEdge(0, 1)] + rose_vertices(genus),
    ]
    next_id = 2 * genus + 1
    # split until trivalent: (h1, ..., hk) -> (h1, h2, n) + (~n, h3, ..., hk)
    while True:
        big = [i for i, v in enumerate(verts) if len(v) > 3]
        if not big:
            break
        vi = rng.choice(big) if rng else big[0]
        v = verts[vi]
        if rng:
            cut = rng.randrange(len(v))
            v = v[cut:] + v[:cut]
        n = OrientedEdge(next_id, 1)
        next_id += 1
        verts[vi] = [v[0], v[1], n]
        verts.insert(vi + 1, [n.rev] + list(v[2:]))
    graph = FatGraph(verts, OrientedEdge(0, 1))
    graph.validate()
    if graph.boundary_number() != 1 or graph.genus() != genus:
        raise AssertionError("rose construction produced a wrong surface")
    return graph


def random_flip_path(graph: FatGraph, steps: int, rng: Rng) -> FlipPath:
    """Flip an edge drawn from the graph reached, ``steps`` times."""
    cur = graph
    ctxs = []
    for _ in range(steps):
        cur, ctx = flip(cur, rng.choice(flippable_edges(cur)))
        ctxs.append(ctx)
    return FlipPath(graph, cur, tuple(ctxs))


def random_graph(genus: int, rng: Rng, *, extra_flips: int = 6) -> FatGraph:
    g = standard_surface_graph(genus, rng)
    if extra_flips:
        g = random_flip_path(g, extra_flips, rng).end
    return g


def random_gl(rank: int, rng: Rng, *, steps: int = 12) -> intlinalg.Matrix:
    """A random element of GL(rank, Z) as a product of elementary moves."""
    m = intlinalg.identity(rank)
    for _ in range(steps):
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
    built as the top rows of a random GL element (this needs
    rank <= 2g, the rank of the class group).
    """
    edges, index, cok = _edge_class_space(graph)
    free = cok.free_rank
    if rank > free:
        raise ValueError("rank %d exceeds the edge class rank %d"
                         % (rank, free))
    l_map = random_gl(free, rng)[:rank]
    values = {}
    for x in graph.edge_ids():
        col = [0] * len(edges)
        col[index[OrientedEdge(x, 1)]] = 1
        cls = intlinalg.mat_vec(cok.projection, col)
        values[OrientedEdge(x, 1)] = KElement(intlinalg.mat_vec(l_map, cls))
    return Marking(rank, values)

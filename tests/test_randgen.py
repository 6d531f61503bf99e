"""The peeled rose against the split loop it replaced.

``standard_surface_graph`` peels trivalent rows off the rose's one
vertex, the only vertex above valence 3 at every split.  The loop it
replaced rescanned every vertex for one above valence 3, drew among
them, and inserted the split-off rest after the split vertex; it is kept
here as the oracle.  A seed must give the same graph and leave the
generator in the same state.
"""

import random

import pytest

from fatflip.fatgraph import FatGraph, OrientedEdge
from fatflip.randgen import (random_flip_path, random_graph, rose_vertices,
                             standard_surface_graph)


def split_loop(genus, rng=None):
    """Split any vertex above valence 3 until none is left."""
    verts = [[OrientedEdge(0, -1)],
             [OrientedEdge(0, 1)] + rose_vertices(genus)]
    next_id = 2 * genus + 1
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
    return FatGraph(verts, OrientedEdge(0, 1))


def stored(graph):
    return graph._rows, graph._tail, graph._fresh


@pytest.mark.parametrize("genus", range(1, 41))
def test_peel_matches_split_loop(genus):
    assert stored(standard_surface_graph(genus)) == stored(split_loop(genus))


@pytest.mark.parametrize("genus", range(1, 13))
def test_seeded_peel_matches_split_loop(genus):
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        graph = standard_surface_graph(genus, rng)
        oracle = split_loop(genus, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()
        assert stored(graph) == stored(oracle)


@pytest.mark.parametrize("genus", range(1, 13))
def test_random_graph_matches_split_loop(genus):
    for seed in range(20):
        for extra in (0, 6):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            graph = random_graph(genus, rng, extra_flips=extra)
            oracle = split_loop(genus, oracle_rng)
            if extra:
                oracle = random_flip_path(oracle, extra, oracle_rng).end
            assert rng.getstate() == oracle_rng.getstate()
            assert stored(graph) == stored(oracle)

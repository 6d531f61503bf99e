import pytest

from fatflip.fatgraph import FatGraph, oe


@pytest.fixture
def g1():
    """Hand-built genus-1 reference graph.

    Tail 0 into vertex 1; edges 1 and 2 are the two loops of the
    one-holed torus spine, opened up into a trivalent graph by the
    auxiliary edges 3 and 4.  Single boundary cycle of length 10.
    """
    return FatGraph([
        [oe(0, -1)],
        [oe(0, 1), oe(1, 1), oe(3, -1)],
        [oe(3, 1), oe(2, 1), oe(4, -1)],
        [oe(4, 1), oe(1, -1), oe(2, -1)],
    ], oe(0, 1))


@pytest.fixture
def g2():
    from fatflip.randgen import standard_surface_graph
    return standard_surface_graph(2)


@pytest.fixture
def tree():
    """A tailed path graph: structurally fine, fails the valence rules."""
    return FatGraph([
        [oe(0, -1)],
        [oe(0, 1), oe(1, -1)],
        [oe(1, 1)],
    ], oe(0, 1))


@pytest.fixture
def three_boundary():
    """Genus 0 with three boundary cycles; edges 1 and 2 share vertex 1."""
    return FatGraph([
        [oe(0, -1)],
        [oe(0, 1), oe(1, 1), oe(2, -1)],
        [oe(2, 1), oe(3, 1), oe(4, 1)],
        [oe(1, -1), oe(4, -1), oe(3, -1)],
    ], oe(0, 1))

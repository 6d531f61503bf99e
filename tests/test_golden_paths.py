"""Golden records of seeded flip paths and their m/j/s totals.

``tests/data/golden_paths.json`` holds, for each seed, the step records
(edge, a, b, c, d, new_edge) and the cocycle totals of a random flip
path, its reverse, every involution pair, a pentagon, a commuting loop
and one composite of closed loops.  Any change to how paths are walked
must reproduce these exactly.

Regenerate (only when the mathematics is meant to change) with

    PYTHONPATH=src python tests/test_golden_paths.py
"""

import json
import pathlib
import random

from fatflip.cocycles import compose_closed, path_sum
from fatflip.flips import (adjacent_flippable_pairs, commuting_loop,
                           concat_paths, disjoint_flippable_pairs,
                           flippable_edges, involution_pair, pentagon_path,
                           reverse_path)
from fatflip.markings import propagate_path
from fatflip.randgen import (random_coherent_marking, random_flip_path,
                             random_graph)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_paths.json"
SEEDS = range(12)


def _path_record(path, marking):
    steps = [[str(h) for h in (c.edge, c.a, c.b, c.c, c.d, c.new_edge)]
             for c in path.steps]
    totals = {which: str(path_sum(path, marking, which)[0])
              for which in "mjs"}
    return {"steps": steps, "totals": totals}


def seed_record(seed):
    rng = random.Random("golden/%d" % seed)
    genus = 1 + seed % 3
    graph = random_graph(genus, rng)
    marking = random_coherent_marking(graph, rng.randint(2, 2 * genus), rng)
    fwd = random_flip_path(graph, 6, rng)
    back = reverse_path(fwd)
    paths = {"random": fwd, "reverse": back}
    for e in flippable_edges(graph):
        paths["involution %d" % e] = involution_pair(graph, e)
    adjacent = adjacent_flippable_pairs(graph)
    if adjacent:
        paths["pentagon %d %d" % adjacent[0]] = pentagon_path(graph,
                                                              *adjacent[0])
    disjoint = disjoint_flippable_pairs(graph)
    if disjoint:
        paths["commuting %d %d" % disjoint[0]] = commuting_loop(graph,
                                                                *disjoint[0])
    # replays the out-and-back loop after an involution pair
    first = paths["involution %d" % flippable_edges(graph)[-1]]
    paths["composite"] = compose_closed(first, concat_paths(fwd, back))
    # the way back starts where the random path ends
    end_marking = propagate_path(marking, fwd.steps)
    return {name: _path_record(path, end_marking if path is back else marking)
            for name, path in paths.items()}


def all_records():
    return {str(seed): seed_record(seed) for seed in SEEDS}


def test_paths_match_golden_records():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == {str(seed) for seed in SEEDS}
    for seed in SEEDS:
        assert seed_record(seed) == want[str(seed)], "seed %d" % seed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_records(), indent=1, sort_keys=True)
                      + "\n")

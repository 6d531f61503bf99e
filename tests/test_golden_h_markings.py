"""Golden records of canonical homology markings.

``tests/data/golden_h_markings.json`` holds, for two seeded graphs of
each genus 1 to 8, the graph's vertex lists and the value of
``canonical_h_marking`` on every edge.  Any change to how the marking
is computed must reproduce these exactly, because ``fatflip marking
canonical`` prints them and flip walks start from them.

Regenerate (only when the mathematics is meant to change) with

    PYTHONPATH=src python tests/test_golden_h_markings.py
"""

import json
import pathlib
import random

from fatflip.markings import canonical_h_marking
from fatflip.randgen import random_graph

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_h_markings.json"
SEEDS = range(16)


def seed_record(seed):
    graph = random_graph(1 + seed // 2, random.Random("golden-h/%d" % seed))
    marking, _ = canonical_h_marking(graph)
    return {"vertices": [" ".join(map(str, v)) for v in graph.vertices],
            "tail": str(graph.tail),
            "values": {str(x): str(k) for x, k in marking.values.items()}}


def all_records():
    return {str(seed): seed_record(seed) for seed in SEEDS}


def test_markings_match_golden_records():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == {str(seed) for seed in SEEDS}
    for seed in SEEDS:
        assert seed_record(seed) == want[str(seed)], "seed %d" % seed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_records(), indent=1, sort_keys=True)
                      + "\n")

"""Golden records of canonical homology markings.

``tests/data/golden_h_markings.json`` holds, for two seeded graphs of
each genus 1 to 8, the graph's vertex lists and two markings given by
their value on every edge:

* ``tree_values``, the output of ``canonical_h_marking``.  It must be
  reproduced exactly, because ``fatflip marking canonical`` prints it
  and flip walks start from it.
* ``values``, the output of the earlier construction through a Smith
  cokernel of the edge relations.  It is kept as the reference for
  equivalence: the two markings must differ by a symplectic change of
  basis S of Z^2g, S^T J S = J, since both realize the intersection
  pairing of the same surface.

Regenerate ``tree_values`` (only when the mathematics is meant to
change; the other fields are kept) with

    PYTHONPATH=src python tests/test_golden_h_markings.py
"""

import json
import pathlib
import random

from fatflip import intlinalg
from fatflip.abelian import KElement
from fatflip.markings import canonical_h_marking, is_topological_h
from fatflip.randgen import random_graph

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_h_markings.json"
SEEDS = range(16)


def seed_graph(seed):
    return random_graph(1 + seed // 2, random.Random("golden-h/%d" % seed))


def edge_values(marking):
    return {str(x): str(k) for x, k in marking.values.items()}


def test_markings_match_golden_records():
    want = json.loads(GOLDEN.read_text())
    assert set(want) == {str(seed) for seed in SEEDS}
    for seed in SEEDS:
        record = want[str(seed)]
        graph = seed_graph(seed)
        assert [" ".join(map(str, v)) for v in graph.vertices] == \
            record["vertices"], "seed %d" % seed
        assert str(graph.tail) == record["tail"], "seed %d" % seed
        marking, form = canonical_h_marking(graph)
        assert edge_values(marking) == record["tree_values"], "seed %d" % seed
        assert is_topological_h(graph, marking, form), "seed %d" % seed

        edges = sorted(record["values"], key=int)
        xs = [KElement.from_text(record["values"][x]).coords for x in edges]
        ys = [KElement.from_text(record["tree_values"][x]).coords
              for x in edges]
        s = intlinalg.solve_transform(xs, ys)
        assert s is not None, "seed %d" % seed
        assert intlinalg.mat_eq(
            intlinalg.mat_mul(intlinalg.transpose(s),
                              intlinalg.mat_mul(form.matrix, s)),
            form.matrix), "seed %d" % seed


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text())
    for seed in SEEDS:
        marking, _ = canonical_h_marking(seed_graph(seed))
        stored[str(seed)]["tree_values"] = edge_values(marking)
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

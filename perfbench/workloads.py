"""The benchmark's workloads: seeded inputs, one round of timed ops, and checks.

A round is a fixed piece of work that a run repeats until its time is up.
Every round of a run does the same work and returns the same work counts,
so a count that changes between rounds, or between the traced and the
untraced run, is reported as a failure (nondeterminism or semantic drift).
Each op's output is checked outside its timer.
"""

from __future__ import annotations

import random
from functools import reduce
from math import factorial


def walsh_lehman(genus: int) -> int:
    """Rooted one-face cubic maps of genus g: 2(6g-3)! / (12^g g! (3g-2)!).

    These are the flip-graph classes of trivalent tailed one-boundary
    graphs (Walsh & Lehman, JCT B 1972; Harer & Zagier, Invent. Math. 1986).
    """
    num = 2 * factorial(6 * genus - 3)
    den = 12 ** genus * factorial(genus) * factorial(3 * genus - 2)
    if num % den:
        raise ArithmeticError("Walsh-Lehman count is not an integer")
    return num // den


def _quiet(_line: str) -> None:
    pass


class Workload:
    work = ()   # names of the work counts that ``round`` returns

    def warm(self, seed: int) -> None:
        """Untimed work run once before set-up, so first-call costs stay out
        of both set-up and ops."""

    def final_checks(self, seed: int, rec) -> None:
        """Checks made once per run, after the timed rounds."""


class FlipGraph(Workload):
    """Breadth-first search over canonical classes of genus-3 graphs.

    One op expands one class: flip every flippable edge in increasing
    canonical id, canonicalize, dedupe.  The queue holds canonical
    representatives, so the expanded prefix depends only on the mathematics.
    A round stops once a fixed number of classes is known, so that the
    seen set, and with it the memory, is the same size at every seed.
    """

    name = "flipgraph"
    genus = 3
    work = ("flipgraph.classes_found", "flipgraph.flips",
            "flipgraph.new_class_ratio")

    def __init__(self, ff, smoke: bool):
        self.ff = ff
        self.classes = 60 if smoke else 1600

    def _expand(self, graph, seen, queue) -> int:
        flips = 0
        for edge in self.ff.flippable_edges(graph):
            neighbour, _ = self.ff.flip(graph, edge)
            canon, _ = neighbour.canonicalize()
            flips += 1
            if canon not in seen:
                seen.add(canon)
                queue.append(canon)
        return flips

    def _search(self, start, limit, rec=None):
        """BFS from ``start`` until ``limit`` classes are known or all are
        expanded; returns (classes, flips)."""
        seen, queue = {start}, [start]
        flips_each = 6 * start.genus() - 2   # every non-tail edge flips
        flips = done = 0
        while done < len(queue) and len(seen) < limit:
            if rec is None:
                flips += self._expand(queue[done], seen, queue)
            else:
                got = rec.op(self._expand, queue[done], seen, queue,
                             check=lambda n: None if n == flips_each else
                             "expansion made %d flips, expected %d"
                             % (n, flips_each))
                if got is None:
                    return None
                flips += got
            done += 1
        return len(seen), flips

    def _start(self, seed: int):
        rng = random.Random("flipgraph/%d" % seed)
        start, _ = self.ff.randgen.random_graph(self.genus, rng).canonicalize()
        return start

    def warm(self, seed: int) -> None:
        start = self._start(seed)
        self._expand(start, {start}, [start])

    def setup(self, seed: int):
        return self._start(seed)

    def round(self, start, rec):
        found = self._search(start, self.classes, rec)
        if found is None:
            return None
        classes, flips = found
        rec.check(classes <= walsh_lehman(self.genus),
                  "%d classes exceed the genus-3 count" % classes)
        return {"flipgraph.classes_found": classes,
                "flipgraph.flips": flips,
                "flipgraph.new_class_ratio": (classes - 1) / flips}

    def final_checks(self, seed: int, rec) -> None:
        """Enumerate genus 1 and 2 completely and compare with the closed form."""
        rng = random.Random("flipgraph-oracle/%d" % seed)
        for genus in (1, 2):
            start, _ = self.ff.randgen.random_graph(genus, rng).canonicalize()
            classes, flips = self._search(start, float("inf"))
            want = walsh_lehman(genus)
            rec.check(classes == want and flips == want * (6 * genus - 2),
                      "genus %d: %d classes and %d flips, expected %d and %d"
                      % (genus, classes, flips, want, want * (6 * genus - 2)))


class Walk(Workload):
    """Out-and-back flip walk at genus 16, summing m, j and s per segment.

    Set-up draws a seeded flip sequence and derives the way back with
    ``reverse_path``.  One op is one segment: ``apply_path`` and then
    ``path_sum`` for m, j and s, carrying the marking forward.
    """

    name = "walk"
    work = ("walk.steps", "walk.max_coord_bits")

    def __init__(self, ff, smoke: bool):
        self.ff = ff
        self.genus, self.segment, self.segments = (
            (3, 2, 2) if smoke else (16, 8, 6))

    def setup(self, seed: int):
        rng = random.Random("walk/%d" % seed)
        graph = self.ff.randgen.random_graph(self.genus, rng)
        marking, _ = self.ff.canonical_h_marking(graph)
        out = self.ff.randgen.random_flip_path(
            graph, self.segment * self.segments, rng)
        back = self.ff.reverse_path(out)
        edges = [ctx.edge for ctx in out.steps + back.steps]
        return graph, marking, edges

    def _segment(self, graph, marking, edges):
        path = self.ff.apply_path(graph, edges)
        totals = []
        for which in "mjs":
            total, end = self.ff.path_sum(path, marking, which)
            totals.append(total)
        return path, totals, end

    def round(self, inputs, rec):
        graph, marking, edges = inputs
        paths, sums, bits = [], None, 0
        cur_graph, cur_marking = graph, marking
        for k in range(0, len(edges), self.segment):
            got = rec.op(self._segment, cur_graph, cur_marking,
                         edges[k:k + self.segment])
            if got is None:
                return None
            path, totals, cur_marking = got
            cur_graph = path.end
            paths.append(path)
            sums = totals if sums is None else [
                a + b for a, b in zip(sums, totals)]
            bits = max(bits, max(abs(x).bit_length()
                                 for value in cur_marking.values.values()
                                 for x in value.coords))
        loop = reduce(self.ff.concat_paths, paths)
        for which, total in zip("mjs", sums):
            rec.check(total.is_zero(),
                      "out-and-back total of %s is %s" % (which, total))
        rec.check(loop.is_closed(), "out-and-back walk is not closed")
        psi = self.ff.canonical_iso(graph, cur_graph)
        rec.check(all(cur_marking.value(psi[e]) == marking.value(e)
                      for e in graph.oriented_edges()),
                  "marking did not return to the start marking")
        return {"walk.steps": len(loop), "walk.max_coord_bits": bits}


class Homology(Workload):
    """Homology markings at a fixed genus mix, with a negative control.

    One op is one graph: ``canonical_h_marking``, ``check_marking``,
    ``is_topological_h`` (must be True), then ``is_topological_h`` on the
    marking moved by a non-symplectic ``random_gl`` (must be False).  Genus
    16 is left to ``walk``: an op of seconds is too long for the speed probe
    to follow the host's slow spells through it.
    """

    name = "homology"
    work = ("homology.edges_total",)

    def __init__(self, ff, smoke: bool):
        self.ff = ff
        self.genera = (1, 2) if smoke else (4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 10, 12)

    def _is_symplectic(self, matrix) -> bool:
        il = self.ff.intlinalg
        form = il.standard_symplectic(len(matrix) // 2)
        return il.mat_eq(il.mat_mul(il.transpose(matrix),
                                    il.mat_mul(form, matrix)), form)

    def setup(self, seed: int):
        rng = random.Random("homology/%d" % seed)
        items = []
        for genus in self.genera:
            graph = self.ff.randgen.random_graph(genus, rng)
            move = self.ff.randgen.random_gl(2 * genus, rng)
            while self._is_symplectic(move):
                move = self.ff.randgen.random_gl(2 * genus, rng)
            items.append((graph, move))
        return items

    def _graph(self, graph, move):
        marking, form = self.ff.canonical_h_marking(graph)
        self.ff.check_marking(graph, marking)
        return (self.ff.is_topological_h(graph, marking, form),
                self.ff.is_topological_h(graph, marking.transform(move), form))

    @staticmethod
    def _verdicts(got):
        if got != (True, False):
            return ("is_topological_h gave %s on the canonical marking and %s "
                    "on the moved one, expected True and False" % got)
        return None

    def round(self, items, rec):
        for graph, move in items:
            if rec.op(self._graph, graph, move, check=self._verdicts) is None:
                return None
        return {"homology.edges_total": sum(g.num_edges for g, _ in items)}


class SelfTest(Workload):
    """Repeated ``run_selftest`` calls, one trial each, at seeds from the run seed.

    Genus 1 to 3 with many tiny objects; the only workload that reaches
    ``words``, ``earle`` and ``induced_k_automorphism``.
    """

    name = "selftest"
    trials = 1

    def __init__(self, ff, smoke: bool):
        self.ff = ff
        self.calls = 2 if smoke else 100

    def warm(self, seed: int) -> None:
        # a fixed seed, so the warm-up is the same at every run seed
        self.ff.selftest.run_selftest(0, self.trials, log=_quiet)

    def setup(self, seed: int):
        rng = random.Random("selftest/%d" % seed)
        return [rng.randrange(2 ** 31) for _ in range(self.calls)]

    def round(self, seeds, rec):
        for s in seeds:
            got = rec.op(self.ff.selftest.run_selftest, s, self.trials, _quiet,
                         check=lambda rc: None if rc == 0 else
                         "run_selftest returned %r" % rc)
            if got is None:
                return None
        return {}


WORKLOADS = {cls.name: cls for cls in (FlipGraph, Walk, Homology, SelfTest)}

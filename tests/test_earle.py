import random
import re

import pytest
from hypothesis import given, strategies as st

from fatflip import earle
from fatflip.abelian import KElement
from fatflip.earle import (NotAHomomorphismError, bp_m_phase_sums,
                           check_d_difference_additive, d2,
                           d_difference_class, d_differences, d_surface,
                           earle_f, h_str, morita_normal_form,
                           project, reconstruct, reference_bp_automorphism)
from fatflip.markings import SymplecticForm
from fatflip.words import (FreeAutomorphism, WordError, commutator, concat,
                           gen, inverse, parse_word, reduce_word,
                           surface_generators, word_str)

rank2_words = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
    max_size=20).map(reduce_word)


class TestNormalForm:
    def test_worked_example(self):
        assert morita_normal_form(parse_word("b a b' a'")) == \
            [(0, 1), (1, -1), (-1, 0)]

    def test_single_letter(self):
        assert morita_normal_form(parse_word("a")) == [(1, 0)]

    def test_empty(self):
        assert morita_normal_form(()) == []

    def test_power_packing(self):
        assert morita_normal_form(parse_word("a a")) == [(1, 0), (1, 0)]

    @given(rank2_words)
    def test_reconstructs_exactly(self, w):
        nf = morita_normal_form(w)
        assert reconstruct(nf) == w
        assert (0, 0) not in nf

    def test_rejects_surface_words(self):
        with pytest.raises(WordError):
            morita_normal_form(parse_word("a1 b1"))


class TestD2:
    def test_commutator_value(self):
        assert d2(parse_word("b a b' a'")) == -2
        assert d2(parse_word("a")) == 0
        assert d2(parse_word("b")) == 0

    def test_derived_values(self):
        assert d2(parse_word("a b")) == 1
        assert d2(parse_word("b a")) == -1

    def test_double_sum_oracle(self):
        # direct evaluation of the double sums, independent of the
        # suffix-accumulator implementation
        def oracle(word):
            nf = morita_normal_form(word)
            n = len(nf)
            first = sum(nf[k][0] * sum(nf[l][1] for l in range(k, n))
                        for k in range(n))
            second = sum(nf[k][1] * sum(nf[l][0] for l in range(k + 1, n))
                         for k in range(n))
            return first - second

        rng = random.Random(17)
        for _ in range(200):
            letters = [("ab"[rng.randrange(2)], rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 15))]
            w = reduce_word(letters)
            assert d2(w) == oracle(w)


class TestProjection:
    def test_projection_of_conjugated_word(self):
        w = parse_word("a2 b2' a2' b1 a1 b1' a1' a2 b2")
        assert word_str(project(w, 1, 2)) == "b a b' a'"
        assert word_str(project(w, 2, 2)) == "a"

    def test_kills_other_handles(self):
        assert project(parse_word("a1"), 2, 2) == ()
        assert word_str(project(parse_word("b3"), 3, 3)) == "b"

    def test_index_range(self):
        with pytest.raises(WordError):
            project(parse_word("a1"), 3, 2)


class TestDSurface:
    def test_commutator_product(self):
        w = concat(commutator(gen("b1"), gen("a1")),
                   commutator(gen("b2"), gen("a2")))
        assert d_surface(w, 2) == -4

    def test_generators_vanish(self):
        for name in ("a1", "b1", "a2", "b2"):
            assert d_surface(gen(name), 2) == 0

    def test_projects_only_onto_used_handles(self, monkeypatch):
        calls = []

        def counted(word, i, genus):
            calls.append(i)
            if len(calls) > 10:
                raise AssertionError("projected onto %d handles" % len(calls))
            return project(word, i, genus)

        monkeypatch.setattr(earle, "project", counted)
        word = commutator(gen("b1000000000"), gen("a1000000000"))
        assert d_surface(word, 10 ** 9) == d2(commutator(gen("b"), gen("a")))
        assert len(calls) <= 2

    @pytest.mark.parametrize("word, message", [
        ("a1 a5", "generator a5 outside genus 2"),
        ("a2 b a1", "expected a surface word, got bare b"),
    ])
    def test_letters_checked(self, word, message):
        with pytest.raises(WordError) as err:
            d_surface(parse_word(word), 2)
        assert str(err.value) == message

    @pytest.mark.parametrize("evaluate", [
        lambda genus: d_surface(parse_word("a1 b1"), genus),
        lambda genus: earle_f(FreeAutomorphism({}), genus),
    ], ids=["d_surface", "earle_f"])
    @pytest.mark.parametrize("genus", [0, -1])
    def test_genus_below_one_named(self, evaluate, genus):
        with pytest.raises(WordError) as err:
            evaluate(genus)
        assert str(err.value) == "genus must be at least 1, got %d" % genus


def _omega(x, y):
    """The standard form on exponent sums: a_i . b_i = 1, and a . b = 1
    for bare words."""
    def sums(w):
        out = {}
        for name, sign in w:
            out[name] = out.get(name, 0) + sign
        return out

    u, v = sums(x), sums(y)
    a_names = {n for n in list(u) + list(v) if n.startswith("a")}
    return sum(u.get(a, 0) * v.get("b" + a[1:], 0)
               - u.get("b" + a[1:], 0) * v.get(a, 0) for a in a_names)


def surface_words(genus):
    names = ["%s%d" % (k, i) for i in range(1, genus + 1) for k in "ab"]
    return st.lists(st.tuples(st.sampled_from(names),
                              st.sampled_from([1, -1])),
                    max_size=16).map(reduce_word)


class TestMoritaIdentity:
    """d(xy) = d(x) + d(y) + omega([x], [y]), which makes the
    d-difference of phi additive exactly when phi's action on H
    preserves omega."""

    @given(st.integers(1, 4).flatmap(
        lambda g: st.tuples(st.just(g), surface_words(g), surface_words(g))))
    def test_d_surface(self, case):
        genus, x, y = case
        assert d_surface(concat(x, y), genus) == \
            d_surface(x, genus) + d_surface(y, genus) + _omega(x, y)

    @given(rank2_words, rank2_words)
    def test_d2(self, x, y):
        assert d2(concat(x, y)) == d2(x) + d2(y) + _omega(x, y)


class TestReferenceMap:
    def test_image_of_a2(self):
        phi = reference_bp_automorphism(2)
        assert word_str(phi.images["a2"]) == "a2 b2' a2' b1 a1 b1' a1' a2 b2"
        assert phi.images["b2"] == (("b2", 1),)

    def test_d_differences(self):
        assert d_differences(reference_bp_automorphism(2), 2) == \
            {"a1": 0, "b1": 0, "a2": -2, "b2": 0}

    def test_earle_value(self):
        phi = reference_bp_automorphism(2)
        assert earle_f(phi, 2) == -2 * KElement.basis(4, 3)

    def test_identity_gives_zero(self):
        phi = FreeAutomorphism.identity(2)
        assert earle_f(phi, 2) == KElement.zero(4)

    def test_higher_genus_padding(self):
        phi = reference_bp_automorphism(3)
        assert earle_f(phi, 3) == -2 * KElement.basis(6, 3)

    def test_additivity_probe(self):
        check_d_difference_additive(reference_bp_automorphism(2), 2)

    def test_non_homomorphism_detected(self):
        # squaring one generator is not induced by any boundary-fixing
        # diffeomorphism; the probe must notice
        broken = FreeAutomorphism({
            "a1": parse_word("a1 a1"),
            "b1": gen("b1"),
            "a2": gen("a2"),
            "b2": gen("b2"),
        })
        with pytest.raises(NotAHomomorphismError):
            check_d_difference_additive(broken, 2)

    def test_inverse_supplied_direction(self):
        # for this bounding pair phi^-1 has the opposite value, so the
        # two directions simply differ by a sign
        phi = reference_bp_automorphism(2)
        direct = earle_f(phi, 2)
        flipped = earle_f(phi, 2, inverse_supplied=True)
        assert direct == -flipped

    def test_text_variant_differs(self):
        # the published gamma with the commutator [b1, a2] in place of
        # [b1, a1], in the reference map
        a1, b1, a2, b2 = map(gen, ("a1", "b1", "a2", "b2"))
        gamma = concat(a2, inverse(b2), inverse(a2), commutator(b1, a2))
        phi = FreeAutomorphism({
            "a1": concat(gamma, a1, inverse(gamma)),
            "b1": concat(gamma, b1, inverse(gamma)),
            "a2": concat(gamma, a2, b2),
            "b2": b2,
        })
        assert d_differences(phi, 2) != \
            d_differences(reference_bp_automorphism(2), 2)


def _lam(phi, genus):
    return lambda w: d_surface(phi(w), genus) - d_surface(w, genus)


def _random_word(rng, genus, length):
    gens = surface_generators(genus)
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
    return reduce_word(letters)


def _probe_rejects(phi, genus, rng, trials=32):
    """The sampled additivity probe that the exact check replaced."""
    lam = _lam(phi, genus)
    for _ in range(trials):
        x = _random_word(rng, genus, rng.randint(0, 12))
        y = _random_word(rng, genus, rng.randint(0, 12))
        if lam(concat(x, y)) != lam(x) + lam(y):
            return True
    return False


def _symplectic_map(genus, rng):
    """A product of two moves that act symplectically on H: conjugation
    by a short word, a transvection a_i -> a_i b_i or b_i -> b_i a_i,
    or the reference bounding-pair map."""
    phi = FreeAutomorphism.identity(genus)
    for _ in range(2):
        images = {n: gen(n) for n in surface_generators(genus)}
        kind = rng.choice(["conj", "twist"] + ["bp"] * (genus >= 2))
        if kind == "conj":
            w = _random_word(rng, genus, rng.randint(1, 3))
            images = {n: concat(w, x, inverse(w)) for n, x in images.items()}
        elif kind == "twist":
            i = rng.randint(1, genus)
            x, y = rng.choice([("a%d", "b%d"), ("b%d", "a%d")])
            images[x % i] = concat(gen(x % i), gen(y % i))
        else:
            images = reference_bp_automorphism(genus).images
        phi = FreeAutomorphism({n: phi(w) for n, w in images.items()})
    return phi


def _squared_image(phi, genus, rng):
    """phi with one image x -> phi(x) phi(x): T loses symplecticity."""
    name = rng.choice(surface_generators(genus))
    images = dict(phi.images)
    images[name] = concat(images[name], images[name])
    return FreeAutomorphism(images)


class TestExactAdditivity:
    BROKEN = FreeAutomorphism({"a1": parse_word("a1 a1"), "b1": gen("b1"),
                               "a2": gen("a2"), "b2": gen("b2")})

    def test_agrees_with_sampled_probe(self):
        for seed in range(10):
            rng = random.Random(seed)
            genus = 1 + seed % 3
            phi = _symplectic_map(genus, rng)
            for candidate, symplectic in [
                    (phi, True), (_squared_image(phi, genus, rng), False)]:
                try:
                    check_d_difference_additive(candidate, genus)
                    exact_rejects = False
                except NotAHomomorphismError as err:
                    exact_rejects = True
                    x, y = (gen(n) for n in
                            re.fullmatch(r".* on (\w+) and (\w+)",
                                         str(err)).groups())
                    lam = _lam(candidate, genus)
                    assert lam(concat(x, y)) != lam(x) + lam(y)
                assert exact_rejects == (not symplectic)
                assert _probe_rejects(candidate, genus,
                                      random.Random(seed)) == exact_rejects

    def test_names_a_failing_pair(self):
        with pytest.raises(NotAHomomorphismError) as err:
            check_d_difference_additive(self.BROKEN, 2)
        assert str(err.value) == "d-difference is not additive on a1 and b1"
        lam = _lam(self.BROKEN, 2)
        a1, b1 = gen("a1"), gen("b1")
        assert lam(concat(a1, b1)) != lam(a1) + lam(b1)

    @pytest.mark.parametrize("images, message", [
        ({"a1": gen("a1"), "b1": gen("b1")}, "no image for generator a2"),
        ({"a1": gen("a1"), "b1": gen("b1"), "a2": gen("a3"), "b2": gen("b2")},
         "image of a2 uses a3, outside genus 2"),
        ({"a1": gen("a"), "b1": gen("b1"), "a2": gen("a2"), "b2": gen("b2")},
         "image of a1 uses a, outside genus 2"),
        ({"a1": gen("a1"), "b1": gen("b1"), "a2": gen("a2"), "b2": gen("b2"),
          "a3": parse_word("a3 a3")},
         "map gives an image for a3, outside genus 2"),
    ], ids=["missing", "outside-genus", "bare", "image-outside-genus"])
    def test_malformed_maps(self, images, message):
        with pytest.raises(WordError) as err:
            earle_f(FreeAutomorphism(images), 2)
        assert str(err.value) == message


class TestDDifferenceClass:
    @staticmethod
    def hand_solution(phi, genus):
        """sum_i lambda(b_i) A_i - lambda(a_i) B_i, written out by hand."""
        lam = d_differences(phi, genus)
        return KElement([c for i in range(1, genus + 1)
                         for c in (lam["b%d" % i], -lam["a%d" % i])])

    def test_matches_the_hand_solution_on_symplectic_maps(self):
        nonzero = 0
        for seed in range(12):
            rng = random.Random(seed)
            genus = 1 + seed % 3
            phi = _symplectic_map(genus, rng)
            h = d_difference_class(phi, genus)
            assert h == self.hand_solution(phi, genus)
            nonzero += not h.is_zero()
            # h . e_j = lambda(x_j) under J, A_i . B_i = 1
            lam = d_differences(phi, genus)
            form = SymplecticForm.standard(genus)
            assert [form.pairing(h, KElement.basis(2 * genus, j))
                    for j in range(2 * genus)] == [
                        lam[x] for x in surface_generators(genus)]
        assert nonzero > 6


class TestHStr:
    def test_str(self):
        h = -2 * KElement.basis(4, 3)
        assert h_str(h) == "-2*B2"
        assert h_str(KElement.zero(4)) == "0"
        combo = KElement.basis(4, 0) + 3 * KElement.basis(4, 1)
        assert h_str(combo) == "1*A1 +3*B1"


class TestPhaseSums:
    def test_totals(self):
        totals, grand = bp_m_phase_sums()
        assert [t.coords for t in totals] == [
            (4, 0, 0, 0),
            (6, 2, -2, 4),
            (-4, 0, 0, 0),
            (-2, -2, 2, -4),
        ]
        assert grand.coords == (4, 0, 0, 0)

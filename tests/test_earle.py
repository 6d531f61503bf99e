import random

import pytest
from hypothesis import given, strategies as st

from fatflip.abelian import KElement
from fatflip.earle import (NotAHomomorphismError, bp_m_phase_sums,
                           check_d_difference_additive, d2, d_differences,
                           d_surface, earle_f, h_str, morita_normal_form,
                           project, reconstruct, reference_bp_automorphism)
from fatflip.words import (FreeAutomorphism, WordError, commutator, concat,
                           gen, parse_word, reduce_word, word_str)

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
        check_d_difference_additive(reference_bp_automorphism(2), 2,
                                    trials=200, rng=random.Random(1))

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
            check_d_difference_additive(broken, 2, trials=300,
                                        rng=random.Random(5))

    def test_inverse_supplied_direction(self):
        # for this bounding pair phi^-1 has the opposite value, so the
        # two directions simply differ by a sign
        phi = reference_bp_automorphism(2)
        direct = earle_f(phi, 2)
        flipped = earle_f(phi, 2, inverse_supplied=True)
        assert direct == -flipped

    def test_text_variant_differs(self):
        phi = reference_bp_automorphism(2, text_variant=True)
        assert d_differences(phi, 2) != \
            d_differences(reference_bp_automorphism(2), 2)


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

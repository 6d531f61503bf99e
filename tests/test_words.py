import random

import pytest
from hypothesis import given, strategies as st

from fatflip.words import (FreeAutomorphism, WordError, abelianized_matrix,
                           commutator, concat, gen, inverse, parse_word,
                           reduce_word, surface_generators, word_str)


rank2_words = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
    max_size=16).map(reduce_word)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([("a", 1), ("a", -1)]) == ()
        assert parse_word("b a a' b") == (("b", 1), ("b", 1))

    def test_idempotent(self):
        w = parse_word("a2 b2' a2' b1 a1 b1' a1'")
        assert reduce_word(w) == w

    @given(rank2_words)
    def test_reduced_has_no_adjacent_inverses(self, w):
        for (n1, s1), (n2, s2) in zip(w, w[1:]):
            assert not (n1 == n2 and s1 == -s2)

    @given(rank2_words)
    def test_inverse_cancels(self, w):
        assert concat(w, inverse(w)) == ()

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            parse_word("a x")


class TestSyntax:
    def test_roundtrip(self):
        text = "a2 b2' a2' b1 a1 b1' a1'"
        assert word_str(parse_word(text)) == text

    def test_empty_word(self):
        assert parse_word("") == ()
        assert word_str(()) == "1"

    def test_commutator_convention(self):
        # [x, y] = x y x' y'
        assert word_str(commutator(gen("b1"), gen("a1"))) == "b1 a1 b1' a1'"


class TestAutomorphism:
    def test_identity(self):
        phi = FreeAutomorphism.identity(2)
        w = parse_word("a2 b1' a1")
        assert phi(w) == w

    def test_substitution(self):
        phi = FreeAutomorphism({"a1": parse_word("a1 b1"),
                                "b1": parse_word("b1")})
        assert phi(parse_word("a1 a1")) == parse_word("a1 b1 a1 b1")
        assert phi(parse_word("a1'")) == parse_word("b1' a1'")

    def test_missing_image(self):
        phi = FreeAutomorphism({"a1": gen("a1")})
        with pytest.raises(WordError):
            phi(parse_word("b1"))

    def test_from_text(self):
        phi = FreeAutomorphism.from_text(
            "# comment\na1 -> a1 b1\nb1 -> b1\n")
        assert phi(gen("a1")) == parse_word("a1 b1")

    def test_abelianized_matrix(self):
        phi = FreeAutomorphism({"a1": parse_word("a1 b1"),
                                "b1": parse_word("b1")})
        assert abelianized_matrix(phi, 1) == [[1, 0], [1, 1]]

    @pytest.mark.parametrize("images, genus, message", [
        ({"a1": "a5", "b1": "b1", "a3": "a3"}, 3,
         "image of a1 uses a5, outside genus 3"),
        ({"a1": "a1", "b1": "b1", "a4": "a4"}, 3,
         "no image for generator a2"),
        ({"a1": "a1", "b1": "b1", "a2": "a2"}, 1,
         "map gives an image for a2, outside genus 1"),
        ({"a1": "a1 b", "b1": "b1"}, 1, "image of a1 uses b, outside genus 1"),
        ({"a1": "a1", "b1": "b1"}, 10 ** 9, "no image for generator a2"),
    ], ids=["letter-outside", "missing-first", "name-outside", "bare-letter",
            "huge-genus"])
    def test_abelianized_matrix_errors(self, images, genus, message):
        phi = FreeAutomorphism({n: parse_word(w) for n, w in images.items()})
        with pytest.raises(WordError) as err:
            abelianized_matrix(phi, genus)
        assert str(err.value) == message

    def test_abelianized_matrix_equals_table_oracle(self):
        # the all-generators table of positions, read in full before any
        # check, gives the same matrix or the same first error
        def oracle(phi, genus):
            gens = surface_generators(genus)
            pos = {name: i for i, name in enumerate(gens)}
            cols = []
            for name in gens:
                if name not in phi.images:
                    raise WordError("no image for generator %s" % name)
                col = [0] * (2 * genus)
                for g_name, sign in phi.images[name]:
                    if g_name not in pos:
                        raise WordError("image of %s uses %s, outside genus "
                                        "%d" % (name, g_name, genus))
                    col[pos[g_name]] += sign
                cols.append(col)
            for name in phi.images:
                if name not in pos:
                    raise WordError("map gives an image for %s, outside "
                                    "genus %d" % (name, genus))
            return [[cols[j][i] for j in range(2 * genus)]
                    for i in range(2 * genus)]

        def outcome(f, phi, genus):
            try:
                return f(phi, genus)
            except WordError as err:
                return str(err)

        rng = random.Random(149)
        names = surface_generators(4) + ["a", "b"]
        letters = names + ["c", "a0", "a1\n", 7]
        outcomes = set()
        for _ in range(400):
            genus = rng.randint(1, 3)
            keys = surface_generators(genus) + rng.sample(names, 2)
            phi = FreeAutomorphism({
                n: [(rng.choice(letters) if rng.random() < 0.05
                     else rng.choice(surface_generators(genus)),
                     rng.choice((1, -1))) for _ in range(rng.randint(0, 4))]
                for n in keys if rng.random() < 0.97})
            got = outcome(abelianized_matrix, phi, genus)
            assert got == outcome(oracle, phi, genus)
            outcomes.add(got.split(" ")[0] if isinstance(got, str)
                         else "matrix")
        assert outcomes == {"no", "image", "map", "matrix"}

    def test_surface_generators(self):
        assert surface_generators(2) == ["a1", "b1", "a2", "b2"]

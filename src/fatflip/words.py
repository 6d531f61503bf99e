"""Free-group words over surface generators and their endomorphisms.

Words are tuples of (generator name, sign) pairs, always freely reduced.
The surface group of genus g uses generators a1, b1, ..., ag, bg; the
rank-two free group uses the bare names a, b.  The textual syntax is
whitespace-separated generator names with a trailing apostrophe for the
inverse, e.g. ``a2 b2' a2' b1 a1 b1' a1'``.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Iterable, List, Mapping, Optional, Tuple

Letter = Tuple[str, int]
Word = Tuple[Letter, ...]

_NAME_RE = re.compile(r"^([ab])([1-9][0-9]*)?$")


class WordError(ValueError):
    pass


def gen_info(name: str) -> Tuple[str, Optional[int]]:
    """Split a generator name into its kind ('a' or 'b') and handle index."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise WordError("unknown generator symbol %r" % name)
    kind, idx = m.group(1), m.group(2)
    return kind, (int(idx) if idx else None)


def surface_generators(genus: int) -> List[str]:
    return ["%s%d" % (kind, i) for i in range(1, genus + 1) for kind in "ab"]


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce; idempotent."""
    stack: List[Letter] = []
    for name, sign in letters:
        if sign not in (1, -1):
            raise WordError("letter sign must be +-1")
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def parse_word(text: str) -> Word:
    """Parse the apostrophe syntax into a reduced word."""
    letters: List[Letter] = []
    for tok in text.split():
        sign = 1
        if tok.endswith("'"):
            sign = -1
            tok = tok[:-1]
        gen_info(tok)  # validates the name
        letters.append((tok, sign))
    return reduce_word(letters)


def word_str(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(name + ("'" if sign < 0 else "") for name, sign in word)


def inverse(word: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


def concat(*words: Word) -> Word:
    return reduce_word(chain.from_iterable(words))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return concat(x, y, inverse(x), inverse(y))


def gen(name: str, sign: int = 1) -> Word:
    gen_info(name)
    return ((name, sign),)


class FreeAutomorphism:
    """Endomorphism of the surface group, given on generators.

    Images are stored reduced; nothing checks invertibility, the caller
    owns that claim.  Applying to a word whose generator has no image
    raises WordError.
    """

    __slots__ = ("images",)

    def __init__(self, images: Mapping[str, Word]):
        self.images = {}
        for name, w in images.items():
            gen_info(name)
            self.images[name] = reduce_word(w)

    @classmethod
    def identity(cls, genus: int) -> "FreeAutomorphism":
        return cls({name: gen(name) for name in surface_generators(genus)})

    @classmethod
    def from_text(cls, text: str) -> "FreeAutomorphism":
        """Parse lines of the form ``gen -> word`` (# starts a comment)."""
        images = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise WordError("line %d: expected 'gen -> word'" % lineno)
            left, right = line.split("->", 1)
            name = left.strip()
            gen_info(name)
            if name in images:
                raise WordError("line %d: duplicate image for %s"
                                % (lineno, name))
            images[name] = parse_word(right)
        return cls(images)

    def __call__(self, word: Word) -> Word:
        letters: List[Letter] = []
        for name, sign in word:
            if name not in self.images:
                raise WordError("no image for generator %s" % name)
            image = self.images[name] if sign > 0 else inverse(self.images[name])
            letters.extend(image)
        return reduce_word(letters)

    def __repr__(self) -> str:
        body = ", ".join("%s -> %s" % (n, word_str(w))
                         for n, w in sorted(self.images.items()))
        return "FreeAutomorphism(%s)" % body


def abelianized_matrix(phi: FreeAutomorphism, genus: int):
    """Exponent-sum action on H = Z^{2g}, basis (A1, B1, ..., Ag, Bg).

    The generators are read in order, so a map with no image for one is
    refused within len(phi.images) // 2 + 1 handles, whatever the genus.
    """
    def position(name) -> Optional[int]:
        try:
            kind, idx = gen_info(name)
        except (TypeError, WordError):  # a letter that is no name at all
            return None
        return 2 * idx - 2 + (kind == "b") if idx and idx <= genus else None

    cols: List[Counter] = []
    for i in range(2 * genus):
        name = "%s%d" % ("ab"[i % 2], i // 2 + 1)
        if name not in phi.images:
            raise WordError("no image for generator %s" % name)
        cols.append(Counter())
        for g_name, sign in phi.images[name]:
            if (j := position(g_name)) is None:
                raise WordError("image of %s uses %s, outside genus %d"
                                % (name, g_name, genus))
            cols[-1][j] += sign
    for name in phi.images:
        if position(name) is None:
            raise WordError("map gives an image for %s, outside genus %d"
                            % (name, genus))
    return [[col[i] for col in cols] for i in range(2 * genus)]

"""Freely reduced words over a symmetric alphabet.

Letters are small ints: generator i is 2*i and its inverse is 2*i + 1, so
flipping the low bit inverts a letter and the int order doubles as the
shortlex base order (a < a- < b < b- < ...).
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import AlphabetMismatchError, InvalidInputError, ResourceLimitError

DEFAULT_ENUMERATION_CUTOFF = 14


@dataclass(frozen=True)
class Alphabet:
    """Symmetric alphabet of a free group of the given rank."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise InvalidInputError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise InvalidInputError(f"rank must be >= 1, got {self.rank}")
        if self.rank > len(string.ascii_lowercase):
            raise InvalidInputError(f"rank must be <= 26, got {self.rank}")

    @property
    def letters(self) -> range:
        return range(2 * self.rank)

    @staticmethod
    def inverse(letter: int) -> int:
        return letter ^ 1

    def letter_name(self, letter: int) -> str:
        name = string.ascii_lowercase[letter // 2]
        return name + "-" if letter & 1 else name

    def parse_letter(self, token: str, position: int = 0) -> int:
        base = token[0] if token else ""
        index = string.ascii_lowercase.find(base)
        suffix = token[1:]
        if index < 0 or index >= self.rank or suffix not in ("", "-", "'"):
            raise InvalidInputError(
                f"unknown letter {token!r} at token {position} (rank {self.rank})"
            )
        return 2 * index + (1 if suffix else 0)

    @property
    def identity(self) -> "ReducedWord":
        return _word(self, ())


class ReducedWord:
    """Immutable freely reduced word; supports *, ~ (inverse), ** and shortlex <.

    The constructor checks that letters is a freely reduced sequence of
    letter codes of alphabet; the package builds words it already knows to
    be reduced with _word, which skips the check.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int]):
        letters = tuple(letters)
        for pos, x in enumerate(letters):
            if type(x) is not int or not 0 <= x < 2 * alphabet.rank:
                raise InvalidInputError(f"letter code {x!r} out of range at token {pos}")
            if pos and x == letters[pos - 1] ^ 1:
                raise InvalidInputError(f"letters not freely reduced at token {pos}")
        self.alphabet = alphabet
        self.letters = letters

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReducedWord)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.rank, self.letters))

    def __lt__(self, other: "ReducedWord") -> bool:
        _check_same_alphabet(self, other)
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __le__(self, other: "ReducedWord") -> bool:
        return self == other or self < other

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        _check_same_alphabet(self, other)
        return _word(self.alphabet, _reduce_concat(self.letters, other.letters))

    def __invert__(self) -> "ReducedWord":
        return _word(self.alphabet, _inverse(self.letters))

    def __pow__(self, n: int) -> "ReducedWord":
        if n < 0:
            return (~self) ** (-n)
        result = self.alphabet.identity
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"<word {format_word(self)!r}>"

    def conjugated_by(self, w: "ReducedWord") -> "ReducedWord":
        return w * self * ~w

    def exponent_sums(self) -> tuple[int, ...]:
        sums = [0] * self.alphabet.rank
        for x in self.letters:
            sums[x // 2] += -1 if x & 1 else 1
        return tuple(sums)


def _word(
    alphabet: Alphabet, letters: tuple[int, ...], _new=object.__new__, _cls=ReducedWord
) -> ReducedWord:
    """The word with the given letters, which the caller knows to be a freely
    reduced tuple of alphabet's letter codes; no check is made.  (_new and
    _cls are bound as defaults for speed: a sweep builds ~10^5 words.)"""
    w = _new(_cls)
    w.alphabet = alphabet
    w.letters = letters
    return w


def _check_same_alphabet(u: ReducedWord, v: ReducedWord) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"alphabet ranks differ: {u.alphabet.rank} vs {v.alphabet.rank}"
        )


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the inverse word."""
    return tuple(x ^ 1 for x in reversed(letters))


def _reduce_concat(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced letters of left followed by right, both reduced: letters
    cancel only where the two meet."""
    n = min(len(left), len(right))
    c = 0
    while c < n and left[-1 - c] == right[c] ^ 1:
        c += 1
    return left[: len(left) - c] + right[c:]


def free_reduce(alphabet: Alphabet, raw: Iterable[int | str]) -> ReducedWord:
    """Freely reduce a raw letter sequence (ints or letter names)."""
    letters = []
    for pos, item in enumerate(raw):
        if isinstance(item, str):
            x = alphabet.parse_letter(item, pos)
        else:
            x = item
            if x not in alphabet.letters:
                raise InvalidInputError(f"letter code {x} out of range at token {pos}")
        if letters and letters[-1] == x ^ 1:
            letters.pop()
        else:
            letters.append(x)
    return _word(alphabet, tuple(letters))


def cyclic_reduce(w: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced."""
    if not w:
        return w, w
    conjugator, root, e = _root_key(w.letters)
    return _word(w.alphabet, root * e), _word(w.alphabet, conjugator)


def _root_key(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(conjugator, root, e) of non-empty reduced letters w: w = conjugator
    root^e conjugator^-1 with root cyclically reduced and primitive, e >= 1
    maximal.  The three are unique, so two words share a primitive root
    exactly when their (conjugator, root) agree."""
    n = len(letters)
    i = 0
    while n - 2 * i >= 2 and letters[i] == letters[n - 1 - i] ^ 1:
        i += 1
    core = letters[i : n - i]
    m = len(core)
    for d in range(1, m + 1):
        if m % d == 0 and core == core[:d] * (m // d):
            return letters[:i], core[:d], m // d
    raise AssertionError("unreachable: every word is a power of itself")


def primitive_root(w: ReducedWord) -> tuple[ReducedWord, int]:
    """Return (r, e) with w = r**e, e >= 1 maximal; w must be non-trivial."""
    if not w:
        raise InvalidInputError("identity has no primitive root")
    conjugator, root, e = _root_key(w.letters)
    # no letters cancel: root starts and ends like the core w conjugates
    return _word(w.alphabet, conjugator + root + _inverse(conjugator)), e


def parse_word(alphabet: Alphabet, text: str) -> ReducedWord:
    """Parse the whitespace-separated letter grammar; "" and "1" denote identity."""
    stripped = text.strip()
    if stripped in ("", "1"):
        return alphabet.identity
    return free_reduce(alphabet, stripped.split())


def format_word(w: ReducedWord) -> str:
    if not w.letters:
        return "1"
    return " ".join(w.alphabet.letter_name(x) for x in w.letters)


def iter_sphere_letters(alphabet: Alphabet, r: int) -> Iterator[tuple[int, ...]]:
    """Yield the letter tuples of all reduced words of length r, in shortlex order."""
    if r < 0:
        raise InvalidInputError(f"radius must be >= 0, got {r}")
    if r == 0:
        yield ()
        return
    letters = list(alphabet.letters)
    stack = [(x,) for x in reversed(letters)]
    while stack:
        word = stack.pop()
        if len(word) == r:
            yield word
            continue
        forbidden = word[-1] ^ 1
        for x in reversed(letters):
            if x != forbidden:
                stack.append(word + (x,))


def _check_cutoff(name: str, radius: int, cutoff: int) -> int:
    """radius, checked against the enumeration cutoff before any word is
    visited; name says what the radius bounds."""
    if radius > cutoff:
        raise ResourceLimitError(f"{name} {radius} exceeds enumeration cutoff {cutoff}")
    return radius


def enumerate_sphere(
    alphabet: Alphabet, r: int, *, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> list[ReducedWord]:
    """All reduced words of length exactly r, shortlex sorted; guarded by cutoff."""
    _check_cutoff("sphere radius", r, cutoff)
    return [_word(alphabet, w) for w in iter_sphere_letters(alphabet, r)]


def enumerate_ball(
    alphabet: Alphabet, r: int, *, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> list[ReducedWord]:
    """All reduced words of length <= r, shortlex sorted."""
    out: list[ReducedWord] = []
    for i in range(r + 1):
        out.extend(enumerate_sphere(alphabet, i, cutoff=cutoff))
    return out


def sphere_size(alphabet: Alphabet, r: int) -> int:
    """Closed-form sphere count 2k(2k-1)^(r-1); cross-checked against enumeration."""
    k = alphabet.rank
    if r == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (r - 1)

"""Ordered alphabets and languages defined by forbidden substrings.

A word is a tuple of symbol ranks (ints), so plain tuple comparison gives
the alphabetic order induced by the declared symbol order, never by
codepoint. A word w of length n belongs to the language when the periodic
repetition of w contains no forbidden factor, including across the seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotIrreducibleError
from .scc import largest_components

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered symbol set; rank in ``symbols`` is the total order."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_rank", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet of single-character symbols, ordered as written."""
        return cls(tuple(text))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def rank(self, symbol: str) -> int:
        try:
            return self._rank[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def word(self, text: str) -> Word:
        """Parse a word of single-character symbols."""
        return tuple(self.rank(ch) for ch in text)

    def text(self, word: Word) -> str:
        return "".join(self.symbols[r] for r in word)


@dataclass(frozen=True)
class Language:
    """Alphabet plus a finite set of forbidden factors (duplicates removed)."""

    alphabet: Alphabet
    forbidden: frozenset[Word] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for f in self.forbidden:
            if len(f) == 0:
                raise ValueError("forbidden words must be nonempty")
            if any(not (0 <= r < self.alphabet.size) for r in f):
                raise ValueError(f"forbidden word {f} uses symbols outside the alphabet")

    @classmethod
    def from_text(cls, alphabet_text: str, forbidden_texts: tuple[str, ...] | list[str] = ()) -> "Language":
        alphabet = Alphabet.from_text(alphabet_text)
        return cls(alphabet, frozenset(alphabet.word(t) for t in forbidden_texts))

    @property
    def max_forbidden_len(self) -> int:
        return max((len(f) for f in self.forbidden), default=0)


def parse_language_text(text: str) -> Language:
    """Parse the language file format: line 1 is the alphabet symbols in
    order, every later nonempty line is one forbidden word."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("language file must start with an alphabet line")
    alphabet_text = lines[0].strip()
    forbidden = [ln.strip() for ln in lines[1:] if ln.strip()]
    return Language.from_text(alphabet_text, forbidden)


def _occurs(haystack: Word, needle: Word) -> bool:
    k = len(needle)
    return any(haystack[i : i + k] == needle for i in range(len(haystack) - k + 1))


def is_circular_word(lang: Language, w: Word) -> bool:
    """True when no forbidden factor occurs in the periodic repetition of w.

    Equivalent finite check: scan w extended by its own periodic
    continuation up to length len(w) + max_forbidden_len - 1, so every
    window that could straddle the seam is inspected exactly once.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no periodic repetition")
    if not lang.forbidden:
        return True
    pad = lang.max_forbidden_len - 1
    reps = -(-(len(w) + pad) // len(w))
    ext = (w * reps)[: len(w) + pad]
    return not any(_occurs(ext, f) for f in lang.forbidden)


def enumerate_words(lang: Language, n: int) -> list[Word]:
    """All circular words of length n, in lexicographic order.

    Depth-first extension with forbidden-suffix pruning: a linear
    occurrence of a forbidden factor already rules out every extension, so
    whole subtrees are skipped. A full-length prefix is then extended by
    its own periodic continuation for max_forbidden_len - 1 more letters
    under the same suffix test, so the windows across the seam are checked
    once, like every other window. A prefix is tested before it is pushed,
    so the stack holds only live prefixes.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    forbidden = sorted(lang.forbidden, key=len)
    full = n + max(lang.max_forbidden_len - 1, 0)
    letters = range(lang.alphabet.size - 1, -1, -1)
    out: list[Word] = []
    # Explicit stack, letters pushed in reverse so words pop in order.
    stack: list[Word] = [()]
    while stack:
        prefix = stack.pop()
        depth = len(prefix)
        if depth == full:
            out.append(prefix[:n])
            continue
        for s in letters if depth < n else (prefix[depth - n],):
            child = prefix + (s,)
            # A forbidden word longer than child cannot equal its suffix.
            for f in forbidden:
                if child[-len(f) :] == f:
                    break
            else:
                stack.append(child)
    return out


def estimate_growth_rate(lang: Language, n_max: int) -> float:
    """Crude growth-rate estimate: the ratio of word counts at lengths
    n_max and n_max - 1.

    Word counts grow like a power of the structural growth rate, so
    successive ratios approach it; this is a ratio estimate only, not an
    eigenvalue computation.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2 for a ratio")
    prev = len(enumerate_words(lang, n_max - 1))
    if prev == 0:
        raise NotIrreducibleError(f"no words of length {n_max - 1}; ratio undefined")
    cur = len(enumerate_words(lang, n_max))
    if cur == 0:
        raise NotIrreducibleError(f"no words of length {n_max}; ratio undefined")
    return cur / prev


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    reason: str
    excluded: tuple[Word, ...]


def check_irreducible(lang: Language, n: int) -> IrreducibilityReport:
    """Graph-level irreducibility check at span n.

    Passes when the raw span-n graph has a unique strongly connected
    component holding at least one arc and every word of length n+1 maps
    to an arc inside it. Never raises; failures come back with the words
    that would be dropped.
    """
    if n < 1:
        raise ValueError("span must be >= 1")
    words = enumerate_words(lang, n + 1)
    if not words:
        return IrreducibilityReport(False, f"no words of length {n + 1}", ())
    inside, ties, best = largest_components([(w[:n], w[1:]) for w in words])
    excluded = tuple(w for w, keep in zip(words, inside) if not keep)
    if ties > 1:
        return IrreducibilityReport(False, f"{ties} components tie at {best} arcs", excluded)
    if excluded:
        return IrreducibilityReport(
            False, f"{len(excluded)} words fall outside the main component", excluded
        )
    return IrreducibilityReport(True, "unique component carries every word", ())

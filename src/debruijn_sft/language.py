"""Ordered alphabets and languages defined by forbidden substrings.

A word is a tuple of symbol ranks (ints), so plain tuple comparison gives
the alphabetic order induced by the declared symbol order, never by
codepoint. A word w of length n belongs to the language when the periodic
repetition of w contains no forbidden factor, including across the seam.
Enumeration works on word ranks: a word's rank is its value as a base-k
number (k the alphabet size), so rank order is lexicographic order. Words
are built from halves: the words read from an automaton state, grouped by
the state they end in, join the words read on from that end state, and a
joined rank is the left rank shifted past the right half plus the right
rank.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat
from math import inf

from .errors import NotIrreducibleError

Word = tuple[int, ...]


def _word(w: object, k: float = inf) -> Word | None:
    """`w` read as a word: any sequence of letters, ints from 0 to k - 1,
    as a tuple; None when w is anything else. Every word, vertex and arc
    end given to the package is read by this one check."""
    if type(w) is not tuple:
        if not isinstance(w, Sequence):
            return None
        w = tuple(w)
    if not all(map(isinstance, w, repeat(int))) or w and not (0 <= min(w) and max(w) < k):
        return None
    return w


class _Frozen:
    """Refuses assignment and deletion. The one way around it is the
    instance dict: constructors fill it with `vars(self).update`, and
    `cached_property` writes there on first read."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Frozen):
    """Finite ordered symbol set; rank in ``symbols`` is the total order.

    Equal, and hashed alike, when the symbols are."""

    def __init__(self, symbols: tuple[str, ...]) -> None:
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        vars(self).update(symbols=symbols, _rank={s: i for i, s in enumerate(symbols)})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet(symbols={self.symbols!r})"

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet of single-character symbols, ordered as written."""
        return cls(tuple(text))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def rank(self, symbol: str) -> int:
        try:
            return self._rank[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def word(self, text: str) -> Word:
        """Parse a word of single-character symbols."""
        return tuple(self.rank(ch) for ch in text)

    def text(self, word: Word) -> str:
        symbols = self.symbols
        return "".join([symbols[r] for r in word])


class Language(_Frozen):
    """Alphabet plus a finite set of forbidden factors (duplicates removed),
    kept as a frozenset of tuples whatever collection of words is given.

    Equal, and hashed alike, when the alphabets and the forbidden sets are."""

    def __init__(self, alphabet: Alphabet, forbidden: frozenset[Word] = frozenset()) -> None:
        if not isinstance(forbidden, Iterable):
            raise ValueError(f"forbidden words {forbidden!r} are not a collection of words")
        words = set()
        for f in forbidden:
            w = _word(f, alphabet.size)
            if w is None:
                raise ValueError(f"forbidden word {f} uses symbols outside the alphabet")
            if not w:
                raise ValueError("forbidden words must be nonempty")
            words.add(w)
        forbidden = frozenset(words)
        vars(self).update(
            alphabet=alphabet, forbidden=forbidden,
            max_forbidden_len=max((len(f) for f in forbidden), default=0),
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.forbidden) == (other.alphabet, other.forbidden)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.forbidden))

    def __repr__(self) -> str:
        return f"Language(alphabet={self.alphabet!r}, forbidden={self.forbidden!r})"

    @classmethod
    def from_text(cls, alphabet_text: str, forbidden_texts: tuple[str, ...] | list[str] = ()) -> "Language":
        alphabet = Alphabet.from_text(alphabet_text)
        return cls(alphabet, frozenset(alphabet.word(t) for t in forbidden_texts))


def parse_language_text(text: str) -> Language:
    """Parse the language file format: line 1 is the alphabet symbols in
    order, every later nonempty line is one forbidden word."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("language file must start with an alphabet line")
    alphabet_text = lines[0].strip()
    forbidden = [ln.strip() for ln in lines[1:] if ln.strip()]
    return Language.from_text(alphabet_text, forbidden)


def _automaton(lang: Language) -> list[list[int]]:
    """The Aho-Corasick goto table of the forbidden words.

    State 0 is the empty prefix; row s gives, for each letter, the state
    after it. A state is dead when it or a state on its failure chain ends
    a forbidden word, that is when the letters read so far end with one;
    every move into a dead state reads -1. Rows of dead states are never
    read: no live state's failure chain passes through one.
    """
    k = lang.alphabet.size
    goto = [[-1] * k]
    ends = [False]   # the state spells a whole forbidden word
    for f in sorted(lang.forbidden):
        s = 0
        for a in f:
            if goto[s][a] < 0:
                goto[s][a] = len(goto)
                goto.append([-1] * k)
                ends.append(False)
            s = goto[s][a]
        ends[s] = True
    # Breadth-first, so a state's failure state has its final row before
    # the state is reached; there -1 already marks a dead target.
    fail = [0] * len(goto)
    queue = [0]
    for s in queue:
        row, back = goto[s], goto[fail[s]]
        for a in range(k):
            t = row[a]
            if t < 0:
                row[a] = back[a] if s else 0
            elif ends[t] or (s and back[a] < 0):
                row[a] = -1
            else:
                fail[t] = back[a] if s else 0
                queue.append(t)
    return goto


def is_circular_word(lang: Language, w: Word) -> bool:
    """True when no forbidden factor occurs in the periodic repetition of w.

    Equivalent finite check: run the forbidden-word automaton over w and
    its own periodic continuation up to length len(w) + max_forbidden_len
    - 1, so every window that could straddle the seam is read exactly once.
    """
    word = _word(w, lang.alphabet.size)
    if word is None:
        raise ValueError(f"word {w} uses symbols outside the alphabet")
    if not word:
        raise ValueError("the empty word has no periodic repetition")
    w = word
    goto = _automaton(lang)
    s = 0
    for i in range(len(w) + max(lang.max_forbidden_len - 1, 0)):
        s = goto[s][w[i % len(w)]]
        if s < 0:
            return False
    return True


# (state, length) -> {end state: ascending ranks}, as `_words_from` fills it
_Halves = dict[tuple[int, int], dict[int, list[int]]]


def _words_from(goto: list[list[int]], k: int, s: int, m: int, memo: _Halves) -> dict[int, list[int]]:
    """The ranks of the length-m words that the automaton reads from state
    s without dying, as {end state: ascending ranks}.

    A word of length m is a left part of length m - m//2 read from s, then
    a right part of length m//2 read on from the state t where the left
    part ends. For each t the joined ranks ascend, since every left rank
    is shifted past all right ranks; an end state reached from several t
    gets its runs sorted together. Each (state, length) is built once per
    `memo`, which the caller owns.
    """
    key = (s, m)
    found = memo.get(key)
    if found is not None:
        return found
    out: dict[int, list[int]] = {}
    if m == 0:
        out[s] = [0]
    elif m == 1:
        for a, t in enumerate(goto[s]):
            if t >= 0:
                out.setdefault(t, []).append(a)
    else:
        low = m // 2
        step = k ** low
        merged: set[int] = set()   # end states joined from more than one t
        for t, left in _words_from(goto, k, s, m - low, memo).items():
            for u, right in _words_from(goto, k, t, low, memo).items():
                joined = [l * step + r for l in left for r in right]
                if u in out:
                    out[u] += joined
                    merged.add(u)
                else:
                    out[u] = joined
        for u in merged:
            out[u].sort()
    memo[key] = out
    return out


def enumerate_ranks(lang: Language, n: int) -> list[int]:
    """The ranks of all circular words of length n, ascending.

    A word's rank is its base-k value (k the alphabet size), so rank order
    is lexicographic order. The word's first max_forbidden_len - 1 letters
    are fixed first, and the seam is checked by reading on through them
    from the state where the word ends. The rest is read letter by letter
    when at most 3 letters remain, and otherwise is two halves from
    `_words_from`, shared by every prefix, so each rank is made O(log n)
    times.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    k = lang.alphabet.size
    goto = _automaton(lang)
    pad = max(lang.max_forbidden_len - 1, 0)
    fixed = min(pad, n)
    # (rank, state, letters) of the live prefixes of length `fixed`
    prefixes: list[tuple[int, int, Word]] = [(0, 0, ())]
    for _ in range(fixed):
        prefixes = [
            (r * k + a, t, w + (a,))
            for r, s, w in prefixes for a, t in enumerate(goto[s]) if t >= 0
        ]
    m = n - fixed
    low = m // 2
    step = k ** low
    high = k ** (m - low)
    memo: _Halves = {}
    out: list[int] = []
    for prefix, state, letters in prefixes:
        seam = letters if pad <= n else (letters * (pad // n + 1))[:pad]
        if m <= 3:
            ends = [(prefix, state)]
            for _ in range(m):
                ends = [(r * k + a, t) for r, s in ends for a, t in enumerate(goto[s]) if t >= 0]
            for r, u in ends:
                for a in seam:
                    u = goto[u][a]
                    if u < 0:
                        break
                else:
                    out.append(r)
            continue
        top = prefix * high
        chunk: list[int] = []
        runs = 0
        for t, left in _words_from(goto, k, state, m - low, memo).items():
            kept = []
            for u, right in _words_from(goto, k, t, low, memo).items():
                for a in seam:
                    u = goto[u][a]
                    if u < 0:
                        break
                else:
                    kept.append(right)
            if not kept:
                continue
            right = kept[0] if len(kept) == 1 else sorted([r for run in kept for r in run])
            bases = [(top + l) * step for l in left]
            chunk += [b + r for b in bases for r in right]
            runs += 1
        if runs > 1:
            chunk.sort()
        out += chunk
    return out


def decode_ranks(ranks: list[int], k: int, length: int) -> list[Word]:
    """The words of the given length whose base-k values are `ranks`.

    Each rank splits into a high and a low half; each distinct half is
    decoded once, recursively, and the word is the two halves joined.
    """
    if length <= 8:
        words = []
        for r in ranks:
            letters = [0] * length
            for i in range(length - 1, -1, -1):
                r, letters[i] = divmod(r, k)
            words.append(tuple(letters))
        return words
    low = length // 2
    step = k ** low
    his = list({r // step for r in ranks})
    los = list({r % step for r in ranks})
    hi_word = dict(zip(his, decode_ranks(his, k, length - low)))
    lo_word = dict(zip(los, decode_ranks(los, k, low)))
    return [hi_word[r // step] + lo_word[r % step] for r in ranks]


def encode_word(w: Word, k: int) -> int:
    """The base-k value of w, the inverse of `decode_ranks`. The halves
    are encoded apart and joined, so a long word costs no quadratic run of
    big-int steps."""
    if len(w) <= 8:
        r = 0
        for a in w:
            r = r * k + a
        return r
    low = len(w) // 2
    return encode_word(w[:-low], k) * k ** low + encode_word(w[-low:], k)


def enumerate_words(lang: Language, n: int) -> list[Word]:
    """All circular words of length n, in lexicographic order."""
    return decode_ranks(enumerate_ranks(lang, n), lang.alphabet.size, n)


def estimate_growth_rate(lang: Language, n_max: int) -> float:
    """Crude growth-rate estimate: the ratio of word counts at lengths
    n_max and n_max - 1.

    Word counts grow like a power of the structural growth rate, so
    successive ratios approach it; this is a ratio estimate only, not an
    eigenvalue computation.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2 for a ratio")
    prev = len(enumerate_ranks(lang, n_max - 1))
    if prev == 0:
        raise NotIrreducibleError(f"no words of length {n_max - 1}; ratio undefined")
    cur = len(enumerate_ranks(lang, n_max))
    if cur == 0:
        raise NotIrreducibleError(f"no words of length {n_max}; ratio undefined")
    return cur / prev

"""Independent output checks for the benchmark's jobs.

Nothing here imports the package under test. The closed forms reach spans
far past the package's own exhaustive oracle:

- BEST count for the full k-ary graph of span n:
  (k!)^(k^n) / k^(n+1) Eulerian circuits through a fixed root arc
  (van Aardenne-Ehrenfest & de Bruijn 1951).
- The greedy minimal walk of the full k-ary graph of span n spells the
  Fredricksen-Kessler-Maiorana sequence of order n+1: the Lyndon words
  whose length divides n+1, concatenated in lexicographic order
  (Fredricksen & Maiorana 1978).
- The number of circular words of length N is the trace of T^N, where T is
  the transfer matrix on words of length m-1 (m the longest forbidden
  word); an irreducible graph has exactly that many arcs.
"""

from __future__ import annotations

import hashlib
from itertools import product
from math import factorial


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def best_count_full(k: int, n: int) -> int:
    return factorial(k) ** (k ** n) // k ** (n + 1)


def fkm_sequence(alphabet: str, order: int) -> str:
    """Concatenation of the Lyndon words whose length divides `order`."""
    k = len(alphabet)
    out: list[int] = []
    w = [-1]
    while w:
        w[-1] += 1
        if order % len(w) == 0:
            out.extend(w)
        m = len(w)
        while len(w) < order:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
    return "".join(alphabet[i] for i in out)


def _allowed(window: str, forbid: tuple[str, ...]) -> bool:
    return not any(f in window for f in forbid)


def circular_word_count(alphabet: str, forbid: tuple[str, ...], length: int) -> int:
    """trace(T^length) for the transfer matrix of the language."""
    m = max((len(f) for f in forbid), default=1)
    states = ["".join(p) for p in product(alphabet, repeat=m - 1)]
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    t = [[0] * size for _ in range(size)]
    for s in states:
        for a in alphabet:
            if _allowed(s + a, forbid):
                t[index[s]][index[(s + a)[1:]]] += 1

    def mul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
        cols = list(zip(*y))
        return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]

    acc = [[int(i == j) for j in range(size)] for i in range(size)]
    base, e = t, length
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return sum(acc[i][i] for i in range(size))


def covers_every_word_once(label: str, forbid: tuple[str, ...], width: int,
                           expected: int) -> str | None:
    """None when the cyclic windows of `label` of length `width` are
    `expected` distinct circular words; otherwise the reason they are not."""
    if len(label) != expected:
        return f"label has {len(label)} letters, expected {expected}"
    pad = max((len(f) for f in forbid), default=1) - 1
    reps = -(-(len(label) + width - 1) // len(label))
    ring = (label * reps)[: len(label) + width - 1]
    windows = {ring[i : i + width] for i in range(len(label))}
    if len(windows) != len(label):
        return f"{len(label) - len(windows)} repeated windows"
    bad = next((w for w in windows if not _allowed(w + w[:pad], forbid)), None)
    if bad is not None:
        return f"window {bad} is not a circular word"
    return None

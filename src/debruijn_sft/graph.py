"""De Bruijn graph of a given span, restricted to its largest strongly
connected component, and the span-level irreducibility check.

Vertices are length-n words, arcs come one-for-one from the circular words
of length n+1: the word w yields the arc w[:n] -> w[1:] labeled w[n]. An
arc is a tuple (tail, label, head), so tuple order is arc order. All
orderings (vertex list, arc list, per-vertex out-arcs) are deterministic.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat
from math import inf
from operator import not_, sub
from typing import Iterable, NamedTuple

from .errors import AmbiguousComponentError, EmptyGraphError
from .language import (
    Alphabet, Language, Word, _Frozen, _word, decode_ranks, encode_word, enumerate_ranks,
    is_circular_word,
)


class Arc(NamedTuple):
    tail: Word
    label: int
    head: Word


def _arc(a: object, k: float = inf, span: int | None = None) -> Arc:
    """`a` read as an arc: any 3-sequence (tail, label, head) of a word, a
    letter and a word over k letters, with tuple ends; with `span`, ends of
    that length. ValueError, naming the part at fault, for anything else.
    Every arc given to the package is read here."""
    if not isinstance(a, Sequence) or len(a) != 3:
        raise ValueError(f"arc {a!r} is not a 3-sequence (tail, label, head)")
    ends = _word(a[0], k), _word(a[2], k)
    for w, given in zip(ends, (a[0], a[2])):
        if w is None or span is not None and len(w) != span:
            length = "" if span is None else f" of length {span}"
            raise ValueError(f"arc {a}: {given} is not a word{length} over the alphabet")
    if _word((a[1],), k) is None:
        raise ValueError(f"arc {a}: label {a[1]} is not a letter of the alphabet")
    return Arc(ends[0], a[1], ends[1])


class DeBruijnGraph(_Frozen):
    """A graph on dense vertex ids, with tuple views made on first read.

    Vertex id v is the word of base-k value ranks[v]. Ranks ascend, so ids
    follow word order and the last id is the maximal vertex. Arc ids follow
    arc order, (tail, label): the out-arcs of v, in ascending label order,
    are the ids first[v] to first[v + 1] - 1, and arc i has head id
    heads[i] and label labels[i]. These tables are the graph.

    `rotation_closed` says that every rotation of an arc word is an arc
    word too; False is always sound. `vertices`, `arcs` and `out` hold the
    same graph as word tuples and `Arc`s, each made from the tables when
    first read and kept. `max_vertex` alone is
    decoded at once. Only the exports and `out_arcs` read the views; every
    algorithm finds arcs on the tables, through `_arc_id` or `_id_of_arc`.

    A graph cannot be changed, and is equal only to itself.
    """

    def __init__(
        self, span: int, alphabet: Alphabet, language: Language | None, ranks: list[int],
        first: list[int], heads: list[int], labels: list[int], rotation_closed: bool = False,
    ) -> None:
        vars(self).update(
            span=span, alphabet=alphabet, language=language, ranks=ranks, first=first,
            heads=heads, labels=labels, rotation_closed=rotation_closed,
            max_vertex=decode_ranks(ranks[-1:], alphabet.size, span)[0],
        )

    def __repr__(self) -> str:   # the id tables are left out
        return (
            f"DeBruijnGraph(span={self.span!r}, alphabet={self.alphabet!r}, "
            f"language={self.language!r}, rotation_closed={self.rotation_closed!r})"
        )

    @cached_property
    def vertices(self) -> tuple[Word, ...]:   # lexicographically sorted
        return tuple(decode_ranks(self.ranks, self.alphabet.size, self.span))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:        # sorted by (tail, label)
        vertices = self.vertices
        tails = chain.from_iterable(map(repeat, vertices, map(sub, self.first[1:], self.first)))
        # Arc(...) runs a Python-level __new__; this makes the same tuple.
        arc = partial(tuple.__new__, Arc)
        return tuple(map(arc, zip(tails, self.labels, map(vertices.__getitem__, self.heads))))

    @cached_property
    def out(self) -> dict[Word, tuple[Arc, ...]]:   # per vertex, ascending label
        first = self.first
        return dict(zip(self.vertices, map(self.arcs.__getitem__, map(slice, first, first[1:]))))

    def word_of(self, v: int) -> Word:
        """The word of vertex id v."""
        return decode_ranks([self.ranks[v]], self.alphabet.size, self.span)[0]

    def id_of(self, v: Word) -> int | None:
        """The id of vertex v, or None when v is not a vertex of the graph."""
        v = _word(v, self.alphabet.size)
        if v is None or len(v) != self.span:
            return None
        rank = encode_word(v, self.alphabet.size)
        i = bisect_left(self.ranks, rank)
        return i if i < len(self.ranks) and self.ranks[i] == rank else None

    def _vertex_id(self, v: Word, role: str = "vertex") -> int:
        """The id of vertex v; ValueError when v is not a vertex of the graph."""
        i = self.id_of(v)
        if i is None:
            raise ValueError(f"{role} {v} is not in the graph")
        return i

    def out_arcs(self, v: Word) -> tuple[Arc, ...]:
        """The out-arcs of vertex v, in label order; none when v is no vertex."""
        return self.out.get(_word(v), ())

    def _arc_id(self, v: int, label: int) -> int:
        """The id of the out-arc of vertex id v labeled `label`, or -1."""
        return next((i for i in range(self.first[v], self.first[v + 1]) if self.labels[i] == label), -1)

    def _id_of_arc(self, arc: Arc) -> int:
        """The id of `arc`, its head checked too, or -1 when it is no arc of
        the graph, or no arc at all to `_arc`."""
        try:
            tail, label, head = _arc(arc)
        except ValueError:
            return -1
        v = self.id_of(tail)
        i = -1 if v is None else self._arc_id(v, label)
        return i if i >= 0 and self.heads[i] == self.id_of(head) else -1

    def __contains__(self, arc: Arc) -> bool:
        return self._id_of_arc(arc) >= 0


def graph_from_arcs(
    span: int, alphabet: Alphabet, arcs: list[Arc] | tuple[Arc, ...],
    language: Language | None = None,
) -> DeBruijnGraph:
    """Assemble a graph directly from arcs, without the SCC restriction.

    Useful for hand-built instances; out-arcs of one vertex must carry
    distinct labels so label-greedy choices are unambiguous. Any
    3-sequence (tail, label, head) is an arc: tails and heads must be
    words of length `span` and labels letters of the alphabet. A head
    need not be the shift `tail[1:] + (label,)`, so hand-built graphs can
    break the shift rule on purpose.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    if not arcs:
        raise EmptyGraphError("no arcs")
    ordered = sorted(_arc(a, alphabet.size, span) for a in arcs)
    for a, b in zip(ordered, ordered[1:]):
        if a.tail == b.tail and a.label == b.label:
            raise ValueError(f"vertex {a.tail} has two out-arcs with the same label")
    vertices = sorted({a.tail for a in ordered} | {a.head for a in ordered})
    ids = dict(zip(vertices, range(len(vertices))))
    degree = Counter([a.tail for a in ordered])
    words = {a.tail + (a.label,) for a in ordered}
    return DeBruijnGraph(
        span, alphabet, language,
        ranks=[encode_word(v, alphabet.size) for v in vertices],
        first=[0, *accumulate(degree[v] for v in vertices)],
        heads=[ids[a.head] for a in ordered],
        labels=[a.label for a in ordered],
        rotation_closed=all(w[1:] + w[:1] in words for w in words),
    )


def _span_digraph(
    lang: Language, n: int,
) -> tuple[list[int], list[int], list[int], list[int], list[bool], int, int] | None:
    """The raw span-n digraph of the language and its main component, or
    None when there are no words of length n+1.

    Word rank c is the arc from vertex c // k to vertex c % k**n, labeled
    c % k. By rotation every head is a tail, and the heads u of the words
    a + u are in order the tails of the arcs u + a. Returns the vertex
    ranks, the tables `first`, `heads` and `labels` of `DeBruijnGraph`,
    whether each vertex lies in the main component, the number of
    components tied at its arc count, and that count. What a vertex
    reaches is its component, and the main one is the first met with the
    most arcs.
    """
    ranks = enumerate_ranks(lang, n + 1)
    if not ranks:
        return None
    k = lang.alphabet.size
    labels = [c % k for c in ranks]
    order, first, by_label = [], [], [[] for _ in range(k)]
    tail = v = -1
    for i, c in enumerate(ranks):
        if (t := c // k) != tail:
            tail, v = t, len(order)
            order.append(t)
            first.append(i)
        by_label[c % k].append(v)
    first.append(len(ranks))
    del ranks   # freed before the heads are joined
    heads = list(chain.from_iterable(by_label))
    comp_of = [-1] * len(order)
    comp_arcs = []   # arc count per component, in the order met
    for root in range(len(order)):
        if comp_of[root] < 0:
            comp_of[root] = len(comp_arcs)
            comp = [root]
            for v in comp:   # grows while it is read
                for w in heads[first[v] : first[v + 1]]:
                    if comp_of[w] < 0:
                        comp_of[w] = len(comp_arcs)
                        comp.append(w)
            if len(comp) == len(order):   # one component holds every vertex
                return order, first, heads, labels, [True] * len(order), 1, len(heads)
            comp_arcs.append(sum([first[v + 1] - first[v] for v in comp]))
    best = max(comp_arcs)
    keep = comp_arcs.index(best)
    inside = [c == keep for c in comp_of]
    return order, first, heads, labels, inside, comp_arcs.count(best), best


def build_graph(lang: Language, n: int) -> DeBruijnGraph:
    """Build the span-n graph of the language.

    Raises EmptyGraphError when there are no words of length n+1 and
    AmbiguousComponentError when two components tie for the maximal arc
    count (the construction is only well defined with a unique winner).

    Works on integer word ranks throughout; the kept vertices are numbered
    again only when some are dropped.
    """
    if n < 1:
        raise ValueError("span must be >= 1")
    if n + 1 < lang.max_forbidden_len:
        warnings.warn(
            f"span {n} is shorter than the longest forbidden word minus one; "
            "arcs cannot see every constraint", stacklevel=2,
        )
    found = _span_digraph(lang, n)
    if found is None:
        raise EmptyGraphError(f"no words of length {n + 1}")
    ranks, first, heads, labels, inside, ties, best = found
    if ties > 1:
        raise AmbiguousComponentError(f"{ties} strongly connected components tie at {best} arcs")
    if not all(inside):
        # A kept id moves down by the number of dropped ids before it, and
        # an arc is kept when its head is.
        dropped = list(accumulate(map(not_, inside)))
        arc_kept = list(map(inside.__getitem__, heads))
        ranks = list(compress(ranks, inside))
        labels = list(compress(labels, arc_kept))
        heads = [h - dropped[h] for h in compress(heads, arc_kept)]
        first = [0, *accumulate(compress(map(sub, first[1:], first), inside))]
    return DeBruijnGraph(n, lang.alphabet, lang, ranks, first, heads, labels, rotation_closed=True)


class IrreducibilityReport(NamedTuple):
    irreducible: bool
    reason: str
    excluded: tuple[Word, ...]


def check_irreducible(lang: Language, n: int) -> IrreducibilityReport:
    """Graph-level irreducibility check at span n.

    Passes when the raw span-n graph has a unique largest strongly
    connected component and every word of length n+1 maps to an arc inside
    it. Both ends of an arc lie in one component, so the excluded words
    are the out-arcs of the vertices outside the main one. Never raises;
    failures come back with the words that would be dropped.
    """
    if n < 1:
        raise ValueError("span must be >= 1")
    found = _span_digraph(lang, n)
    if found is None:
        return IrreducibilityReport(False, f"no words of length {n + 1}", ())
    ranks, first, _, labels, inside, ties, best = found
    k = lang.alphabet.size
    outside = [
        ranks[t] * k + labels[i]
        for t, keep in enumerate(inside) if not keep for i in range(first[t], first[t + 1])
    ]
    excluded = tuple(decode_ranks(outside, k, n + 1))
    if ties > 1:
        return IrreducibilityReport(False, f"{ties} components tie at {best} arcs", excluded)
    if excluded:
        return IrreducibilityReport(
            False, f"{len(excluded)} words fall outside the main component", excluded
        )
    return IrreducibilityReport(True, "unique component carries every word", ())


def arc_to_word(g: DeBruijnGraph, arc: Arc) -> Word:
    """The length-(n+1) word carried by an arc of g, as g spells it."""
    i = g._id_of_arc(arc)
    if i < 0:
        raise ValueError(f"arc {arc} does not belong to this graph")
    return g.word_of(g.id_of(arc[0])) + (g.labels[i],)


def word_to_arc(g: DeBruijnGraph, w: Word) -> Arc:
    """Inverse of arc_to_word."""
    word = _word(w, g.alphabet.size)
    if word is None:
        raise ValueError(f"word {w} uses symbols outside the alphabet")
    if len(word) != g.span + 1:
        raise ValueError(f"expected a word of length {g.span + 1}, got {len(word)}")
    if g.language is not None and not is_circular_word(g.language, word):
        raise ValueError(f"word {w} is not in the language")
    tail = word[: g.span]
    v = g.id_of(tail)
    if v is None:
        raise ValueError(f"prefix vertex {tail} is not in the component")
    i = g._arc_id(v, word[g.span])
    if i < 0:
        raise ValueError(f"no arc realizes word {w} inside the component")
    return Arc(g.word_of(v), g.labels[i], g.word_of(g.heads[i]))


def walk_label_target(g: DeBruijnGraph, start: Word, w: Word) -> Word:
    """Endpoint of the walk with label w from start (the length-n suffix of
    start followed by w)."""
    cur = g._vertex_id(start)
    label = _word(w)
    if label is None:
        raise ValueError(f"label {w!r} is not a word")
    for s in label:
        i = g._arc_id(cur, s)
        if i < 0:
            raise ValueError(f"no walk labeled {w} from {start}: stuck at {g.word_of(cur)}")
        cur = g.heads[i]
    return g.word_of(cur)


def _dot_quoted(text: str) -> str:
    """A DOT string literal; backslash is escaped before the quote."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: DeBruijnGraph, highlight: Iterable[Arc] = ()) -> str:
    """Graphviz DOT text; arcs in `highlight` are drawn bold, and one that
    is not an arc of g is left out."""
    marked = {g._id_of_arc(_arc(a)) for a in highlight}
    name = {v: _dot_quoted(g.alphabet.text(v)) for v in g.vertices}
    lines = [f"digraph span{g.span} {{"]
    for v in g.vertices:
        lines.append(f"  {name[v]};")
    for i, a in enumerate(g.arcs):
        attrs = f"label={_dot_quoted(g.alphabet.symbols[a.label])}"
        if i in marked:
            attrs += ", style=bold"
        lines.append(f"  {name[a.tail]} -> {name[a.head]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: DeBruijnGraph) -> dict:
    return {
        "span": g.span,
        "alphabet": list(g.alphabet.symbols),
        "vertices": [g.alphabet.text(v) for v in g.vertices],
        "arcs": [
            {
                "tail": g.alphabet.text(a.tail),
                "label": g.alphabet.symbols[a.label],
                "head": g.alphabet.text(a.head),
            }
            for a in g.arcs
        ],
    }


def graph_from_json(data: dict) -> DeBruijnGraph:
    """Inverse of graph_to_json; malformed data raises ValueError."""
    try:
        alphabet = Alphabet(tuple(data["alphabet"]))
        arcs = [
            Arc(alphabet.word(d["tail"]), alphabet.rank(d["label"]), alphabet.word(d["head"]))
            for d in data["arcs"]
        ]
        span = data["span"]
        named = sorted(map(alphabet.word, data["vertices"])) if "vertices" in data else None
    except KeyError as e:
        raise ValueError(f"graph JSON lacks the field {e.args[0]!r}") from None
    except TypeError as e:
        raise ValueError(f"malformed graph JSON: {e}") from None
    if type(span) is not int:   # not a float, a string or a bool
        raise ValueError(f"graph JSON span {span!r} is not an integer")
    g = graph_from_arcs(span, alphabet, arcs)
    if named is not None and [g.id_of(v) for v in named] != list(range(len(g.ranks))):
        raise ValueError("graph JSON vertices are not exactly the arcs' endpoints")
    return g

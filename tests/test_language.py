import random
import tracemalloc
from collections import Counter

import pytest

from debruijn_sft import (
    Alphabet,
    Language,
    NotIrreducibleError,
    check_irreducible,
    enumerate_words,
    estimate_growth_rate,
    is_circular_word,
    parse_language_text,
)

from debruijn_sft.language import _automaton, _words_from, decode_ranks, enumerate_ranks

from corpus import (
    ALL_INSTANCES, language_of, oracle_enumerate_ranks, oracle_is_circular, oracle_words,
    random_instances,
)

GOLDEN = Language.from_text("01", ("11",))

# Word counts of the language avoiding 11 follow the Lucas recurrence
# L(n) = L(n-1) + L(n-2); an independent cross-check for enumerate_words.
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322]


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.from_text("0")
    with pytest.raises(ValueError):
        Alphabet.from_text("010")
    a = Alphabet.from_text("ba")
    assert a.word("ab") == (1, 0)
    assert a.text((0, 1)) == "ba"
    with pytest.raises(ValueError):
        a.word("c")


def test_declared_order_beats_codepoints():
    # Declared order 10: symbol '1' ranks below '0'.
    lang = Language.from_text("10")
    words = enumerate_words(lang, 2)
    assert [lang.alphabet.text(w) for w in words] == ["11", "10", "01", "00"]


def test_language_validation():
    with pytest.raises(ValueError):
        Language(Alphabet.from_text("01"), frozenset({()}))
    with pytest.raises(ValueError):
        Language(Alphabet.from_text("01"), frozenset({(2,)}))


def test_is_circular_examples():
    assert is_circular_word(GOLDEN, GOLDEN.alphabet.word("01010"))
    # 10001 wraps 1..1 across the seam.
    assert not is_circular_word(GOLDEN, GOLDEN.alphabet.word("10001"))
    assert is_circular_word(GOLDEN, GOLDEN.alphabet.word("0"))
    with pytest.raises(ValueError):
        is_circular_word(GOLDEN, ())


@pytest.mark.parametrize("word", [(0, -1), (0, 5), (2,), (-1, 0, 0)])
def test_is_circular_rejects_letters_outside_the_alphabet(word):
    # A negative letter would read the automaton row from its end.
    with pytest.raises(ValueError, match="outside the alphabet"):
        is_circular_word(GOLDEN, word)


def test_is_circular_forbidden_longer_than_word():
    lang = Language.from_text("01", ("0110",))
    # 011 repeats to ...011011... which contains 0110 across the seam.
    assert not is_circular_word(lang, lang.alphabet.word("011"))
    assert is_circular_word(lang, lang.alphabet.word("0"))
    assert is_circular_word(lang, lang.alphabet.word("01"))


def test_is_circular_matches_cyclic_window_oracle():
    import itertools

    langs = [GOLDEN, Language.from_text("01", ("0110", "111")),
             Language.from_text("012", ("02", "210"))]
    for lang in langs:
        for n in range(1, 6):
            for w in itertools.product(range(lang.alphabet.size), repeat=n):
                assert is_circular_word(lang, w) == oracle_is_circular(lang, w), w


def test_rotation_invariance():
    for lang in [GOLDEN, Language.from_text("012", ("002", "12"))]:
        for n in range(1, 7):
            words = set(enumerate_words(lang, n))
            for w in words:
                for r in range(1, n):
                    rot = w[r:] + w[:r]
                    assert rot in words
                    assert is_circular_word(lang, rot)


def test_enumerate_golden_counts_match_lucas():
    for n in range(1, 13):
        assert len(enumerate_words(GOLDEN, n)) == LUCAS[n]


def test_enumerate_examples():
    assert len(enumerate_words(GOLDEN, 5)) == 11
    full = Language.from_text("01")
    assert len(enumerate_words(full, 3)) == 8
    # 1 repeated is 111... which contains 11, so only 0 survives.
    assert enumerate_words(GOLDEN, 1) == [(0,)]
    with pytest.raises(ValueError):
        enumerate_words(GOLDEN, 0)


def test_enumerate_matches_brute_force_and_is_sorted():
    langs = [GOLDEN, Language.from_text("01", ("0011",)),
             Language.from_text("012", ("22", "012"))]
    for lang in langs:
        for n in range(1, 6):
            got = enumerate_words(lang, n)
            assert got == oracle_words(lang, n)
            assert got == sorted(got)


def several_middle_states(lang, m):
    """Check that every half built for the length-m words from the start
    state ascends; return True when some end state of a join is reached
    through more than one middle state."""
    goto, memo = _automaton(lang), {}
    _words_from(goto, lang.alphabet.size, 0, m, memo)
    for groups in memo.values():
        for ranks in groups.values():
            assert all(a < b for a, b in zip(ranks, ranks[1:])), (lang, m)
    return any(
        max(Counter(u for t in memo[(s, length - length // 2)]
                    for u in memo[(t, length // 2)]).values(), default=0) > 1
        for s, length in memo if length >= 2
    )


def test_enumeration_by_halves_matches_letter_reference():
    # Spans 1-18, each language stopping once its word count passes a cap.
    rng = random.Random(2108)
    langs = [language_of(spec) for spec in ALL_INSTANCES]
    while len(langs) < len(ALL_INSTANCES) + 200:
        alphabet = "012"[: rng.randint(2, 3)]
        forbidden = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
                     for _ in range(rng.randint(1, 3))}
        langs.append(Language.from_text(alphabet, tuple(forbidden)))
    seen = Counter()
    for lang in langs:
        pad = max(lang.max_forbidden_len - 1, 0)
        for n in range(1, 19):
            got = enumerate_ranks(lang, n)
            assert got == oracle_enumerate_ranks(lang, n), (lang, n)
            assert all(a < b for a, b in zip(got, got[1:])), (lang, n)
            m = n - min(pad, n)   # the letters after the seam prefix
            if n < pad:
                seen["below pad"] += 1
            elif m <= 3:
                seen["letter by letter"] += 1
            else:   # built from halves
                seen["odd" if m % 2 else "even"] += 1
            if len(got) > 2000:
                break
        seen["several middles"] += m >= 4 and several_middle_states(lang, m)
    assert min(seen.values()) >= 50 and len(seen) == 5, seen


def test_enumeration_memory_stays_flat_on_a_thin_language():
    # Only 0...0 survives; pruned siblings must not pile up on the stack,
    # which would cost memory quadratic in the length.
    only_zeros = Language.from_text("01", ("1",))
    tracemalloc.start()
    try:
        words = enumerate_words(only_zeros, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == [(0,) * 2000]
    assert peak < 1_000_000


def test_failure_link_marks_a_nested_forbidden_word_dead():
    # 1, 0, 0 is a prefix of 1001, but it ends with the forbidden 00.
    lang = Language.from_text("01", ("1001", "00"))
    goto = _automaton(lang)
    state = goto[goto[0][1]][0]
    assert state >= 0
    assert goto[state][0] == -1
    for n in range(1, 8):
        assert enumerate_words(lang, n) == oracle_words(lang, n)


def test_ranks_are_base_k_values_in_lexicographic_order():
    lang = Language.from_text("012", ("22", "010"))
    words = enumerate_words(lang, 5)
    ranks = enumerate_ranks(lang, 5)
    assert ranks == [int("".join(map(str, w)), 3) for w in words]
    assert decode_ranks(ranks, 3, 5) == words


def test_long_words_decode_whole():
    assert decode_ranks([3 ** 5000 - 1, 0, 5], 3, 5000) == [
        (2,) * 5000, (0,) * 5000, (0,) * 4998 + (1, 2)]


def test_unrestricted_counts_are_powers():
    binary = Language.from_text("01")
    for n in range(1, 11):
        assert len(enumerate_words(binary, n)) == 2 ** n
    ternary = Language.from_text("012")
    for n in range(1, 7):
        assert len(enumerate_words(ternary, n)) == 3 ** n


def test_monotonicity_under_added_forbidden_word():
    import random

    rng = random.Random(7)
    for _ in range(20):
        base = tuple(sorted({"".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
                             for _ in range(rng.randint(0, 2))}))
        extra = "".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
        lang = Language.from_text("01", base)
        bigger = Language.from_text("01", base + (extra,))
        for n in range(1, 6):
            assert set(enumerate_words(bigger, n)) <= set(enumerate_words(lang, n))


def test_growth_rate():
    assert abs(estimate_growth_rate(GOLDEN, 12) - 1.618) < 0.05
    assert estimate_growth_rate(Language.from_text("01"), 8) == 2.0
    assert estimate_growth_rate(Language.from_text("012"), 5) == 3.0
    # Words exist only at even lengths, so length-11 count is zero.
    alternating = Language.from_text("01", ("00", "11"))
    with pytest.raises(NotIrreducibleError):
        estimate_growth_rate(alternating, 12)


def test_check_irreducible():
    assert check_irreducible(GOLDEN, 5).irreducible
    assert check_irreducible(Language.from_text("01"), 3).irreducible
    rep = check_irreducible(Language.from_text("01", ("01", "10")), 2)
    assert not rep.irreducible
    assert "tie" in rep.reason
    # Buildable instance with one stray self-loop component.
    rep2 = check_irreducible(Language.from_text("01", ("01111",)), 4)
    assert not rep2.irreducible
    alphabet = Language.from_text("01").alphabet
    assert alphabet.word("11111") in rep2.excluded
    # On a tie the first completed component is the main one; the others'
    # words are excluded.
    rep3 = check_irreducible(Language.from_text("01", ("01", "10")), 3)
    assert (rep3.irreducible, rep3.reason, rep3.excluded) == (
        False, "2 components tie at 1 arcs", ((1, 1, 1, 1),))
    unequal = [a + b for a in "012" for b in "012" if a != b]
    rep4 = check_irreducible(Language.from_text("012", unequal), 2)
    assert (rep4.irreducible, rep4.reason, rep4.excluded) == (
        False, "3 components tie at 1 arcs", ((1, 1, 1), (2, 2, 2)))


def test_random_corpus_is_irreducible_by_construction():
    for spec in random_instances(10):
        alphabet, forbidden, span = spec
        assert check_irreducible(Language.from_text(alphabet, forbidden), span).irreducible


def test_arbitrary_symbols_in_library_core():
    # The CLI sticks to single characters; the core does not care.
    alphabet = Alphabet(("lo", "hi"))
    lang = Language(alphabet, frozenset({(1, 1)}))
    words = enumerate_words(lang, 3)
    assert words == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert alphabet.text(words[1]) == "lolohi"
    assert not is_circular_word(lang, (1, 0, 1))


def test_parse_language_text():
    lang = parse_language_text("01\n11\n\n000\n")
    assert lang.alphabet.symbols == ("0", "1")
    assert lang.forbidden == frozenset({(1, 1), (0, 0, 0)})
    with pytest.raises(ValueError):
        parse_language_text("")

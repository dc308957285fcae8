import random
import time

import pytest

import knotpres
from knotpres.words import (
    EMPTY,
    Word,
    commutator,
    conjugacy_witness,
    conjugate,
    cyclic_reduce,
)
from oracles import exponent_sum, substitute

A, B, C = 1, 2, 3  # letters for generators a, b, c


def test_reduce_cancels_adjacent_inverses():
    assert Word([A, -A, B]) == Word([B])
    assert Word([A, B, -B, -A]) == EMPTY
    assert Word([A, -B, B, -A, A]) == Word([A])
    assert Word([]) == EMPTY


def test_reduce_rejects_zero_letter():
    with pytest.raises(ValueError):
        Word([0])


@pytest.mark.parametrize("letters", [[True], [1, False]])
def test_bool_letters_are_refused(letters):
    with pytest.raises(ValueError, match="letters are nonzero integers"):
        Word(letters)


def test_concat_reduces_across_the_seam():
    assert Word([A, B]) * Word([-B, A]) == Word([A, A])
    assert Word([A]) * Word([-A]) == EMPTY
    assert EMPTY * EMPTY == EMPTY


def test_invert_reverses_and_flips():
    assert ~Word([A, B]) == Word([-B, -A])
    assert ~Word([A, -B, C]) == Word([-C, B, -A])
    assert ~EMPTY == EMPTY


def test_every_exported_name_resolves():
    assert len(set(knotpres.__all__)) == len(knotpres.__all__)
    for name in knotpres.__all__:
        assert getattr(knotpres, name, None) is not None, name


def test_pow():
    assert Word([A]) ** 3 == Word([A, A, A])
    assert Word([A, B]) ** -1 == Word([-B, -A])
    assert Word([A]) ** 0 == EMPTY


def test_conjugate_and_commutator():
    a, b = Word([A]), Word([B])
    assert conjugate(a, b) == Word([-B, A, B])
    assert commutator(a, b) == Word([-A, -B, A, B])
    assert commutator(a, a) == EMPTY


def test_free_equal_is_canonical_equality():
    assert Word([A, B, -B]) == Word([A])
    assert not Word([A]) == Word([B])


def test_cyclic_reduce():
    w = Word([-B, A, B])
    core, peel = cyclic_reduce(w)
    assert core == Word([A])
    assert peel * core * ~peel == w
    core2, peel2 = cyclic_reduce(Word([A, B]))
    assert core2 == Word([A, B]) and peel2 == EMPTY
    core3, _ = cyclic_reduce(EMPTY)
    assert core3 == EMPTY
    # a long peel costs linear time, not a copy of the word per peeled pair
    n = 40_000
    w = Word([-A] * (n + 1) + [B] + [A] * n)
    start = time.perf_counter()
    core4, peel4 = cyclic_reduce(w)
    elapsed = time.perf_counter() - start
    assert core4 == Word([-A, B]) and peel4 == Word([-A] * n)
    assert elapsed < 0.5


def test_conjugacy_witness_examples():
    u = Word([-B, A, B])
    g = conjugacy_witness(u, Word([A]))
    assert g == Word([-B])
    assert conjugate(u, g) == Word([A])

    g2 = conjugacy_witness(Word([A, B]), Word([B, A]))
    assert g2 is not None
    assert conjugate(Word([A, B]), g2) == Word([B, A])

    assert conjugacy_witness(Word([A]), Word([B])) is None
    assert conjugacy_witness(Word([A]), Word([A, A])) is None
    assert conjugacy_witness(EMPTY, EMPTY) == EMPTY


def test_to_pairs():
    assert Word([A, A, -B, -B, -B, A]).to_pairs() == [[0, 2], [1, -3], [0, 1]]
    assert EMPTY.to_pairs() == []


def test_exponent_sum_and_max_generator():
    w = Word([A, A, -B, C])
    assert exponent_sum(w, 0) == 2
    assert exponent_sum(w, 1) == -1
    assert exponent_sum(w, 2) == 1
    assert w.max_generator() == 3
    assert EMPTY.max_generator() == 0


def test_max_generator_on_empty_inverse_only_and_mixed_words():
    assert EMPTY.max_generator() == 0
    assert Word([-B, -B, -A]).max_generator() == 2
    assert Word([-C, A, -B]).max_generator() == 3
    assert Word([A, -C, B]).max_generator() == 3
    assert Word([C, -A]).max_generator() == 3
    rng = random.Random(17)
    for _ in range(500):
        letters = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 8))]
        w = Word(letters)
        assert w.max_generator() == max((abs(k) for k in w.letters), default=0)


def test_shift_and_substitute():
    w = Word([A, -B])
    assert w.shift(2) == Word([C, -4])
    images = [Word([B, B]), Word([-A])]
    assert substitute(w, images) == Word([B, B, A])


def _random_word(rng, ngens=3, maxlen=12):
    return Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, maxlen))])


def test_group_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(300):
        u, v, w = (_random_word(rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert ~(u * v) == ~v * ~u
        assert u * ~u == EMPTY
        assert u * EMPTY == u
        assert len(u * v) <= len(u) + len(v)


def test_conjugacy_witness_randomized():
    rng = random.Random(99)
    for _ in range(200):
        u = _random_word(rng)
        g = _random_word(rng)
        v = conjugate(u, g)
        wit = conjugacy_witness(u, v)
        assert wit is not None
        assert conjugate(u, wit) == v


def test_cyclic_reduce_randomized():
    rng = random.Random(7)
    for _ in range(200):
        w = _random_word(rng)
        core, peel = cyclic_reduce(w)
        assert peel * core * ~peel == w
        if core:
            assert core.letters[0] != -core.letters[-1]


def _reference_reduced(letters):
    """Independent free reduction: cancel adjacent inverse pairs until none
    is left."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def test_product_and_inverse_match_full_reduction():
    # u * v cancels only at the seam and ~u skips reduction; both must agree
    # with the validating constructor on full, partial and no cancellation.
    rng = random.Random(2024)
    kinds = {"full": 0, "partial": 0, "empty": 0}
    for _ in range(2400):
        u = _random_word(rng, ngens=3, maxlen=10)
        shape = rng.randrange(4)
        if shape == 0:
            v = ~u
        elif shape == 1 and u:
            cut = rng.randint(1, len(u))
            v = ~Word(u.letters[-cut:]) * _random_word(rng, ngens=3, maxlen=6)
        elif shape == 2:
            v = EMPTY
        else:
            v = _random_word(rng, ngens=3, maxlen=10)
        for a, b in ((u, v), (v, u)):
            prod = a * b
            assert type(prod) is Word and type(prod.letters) is tuple
            assert prod == Word(a.letters + b.letters)
            assert prod.letters == _reference_reduced(a.letters + b.letters)
        inv = ~u
        assert type(inv.letters) is tuple
        assert inv == Word([-k for k in reversed(u.letters)])
        assert inv.letters == _reference_reduced([-k for k in reversed(u.letters)])
        joined = u.letters + v.letters
        if u and v and not (u * v):
            kinds["full"] += 1
        elif u and v and len(u * v) < len(joined):
            kinds["partial"] += 1
        if not u or not v:
            kinds["empty"] += 1
    assert all(n >= 100 for n in kinds.values()), kinds

"""Self-tests of the subgroup-membership oracle in ``oracles.py``.

The oracle vouches for ``foldings``, so it must not lean on it: it works on
raw letter tuples, and the last test keeps it away from the package's
decision procedures.
"""

import ast
import importlib
from pathlib import Path

import pytest

from oracles import check_nielsen_reduced, nielsen_reduce, subgroup_ball

A, B = 1, 2


def test_an_unreduced_set_fails_the_check_and_reduces():
    unreduced = [(A,), (A, B)]
    with pytest.raises(ValueError, match="N2 fails"):
        check_nielsen_reduced(unreduced)
    basis = nielsen_reduce(unreduced)
    check_nielsen_reduced(basis)
    assert sorted(map(len, basis)) == [1, 1]


def test_the_half_cancelling_repair_ends_nielsen_reduced():
    # b^3 a^-1 . a b . b^-1 a^3 cancels each half of a b from one side.
    gens = [(A, B), (B, B, B, -A), (-B, A, A, A)]
    with pytest.raises(ValueError, match="N3 fails"):
        check_nielsen_reduced(gens)
    basis = nielsen_reduce(gens)
    check_nielsen_reduced(basis)
    for g in gens:
        assert g in subgroup_ball(basis, 4)


def test_a_member_that_needs_long_partial_products():
    # Its Nielsen basis is {b^-2, a, b^-1 a^-1 b}; a closure of the given
    # words whose partial products stay within eight letters misses it.
    gens = [(A, -B, -B, A), (A, B, -A, B), (B, -A, B)]
    assert (A, A, A, -B, -B) in subgroup_ball(gens, 5)
    assert (A, A, A, -B) not in subgroup_ball(gens, 5)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            source = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(source, alias.name)
                yield getattr(obj, "__module__", None) or obj.__name__


def test_the_oracles_import_no_decision_procedure():
    imported = set(_imported_modules(Path(__file__).with_name("oracles.py")))
    assert "knotpres.words" in imported
    for banned in ("knotpres.foldings", "knotpres.coset", "knotpres.abelian"):
        assert not any(m == banned or m.startswith(banned + ".") for m in imported)

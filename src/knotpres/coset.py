"""Coset enumeration over finite presentations.

The heavy loop lives in a compiled extension when one was built; the
fallback, a pure-Python kernel with the same behaviour, runs when the
extension is not built.  Both kernels are deterministic and produce
identical tables, which the test suite checks directly.

Enumeration is budgeted by the number of simultaneously live cosets, so a
run that collapses heavily may define far more cosets than the budget while
still finishing inside it.  Lookahead passes, which close relator cycles
without defining cosets, scan only the cosets the main loop has not yet
processed; they run when the live count reaches 64 and then eight times
the count after the last pass, and when the budget is hit, so a collapse
costs about what the group needs rather than what the budget allows.
"""

from typing import NamedTuple, Optional

from .outcomes import CheckOutcome
from .presentations import quotient
from .words import Word, _directions, _quote

try:
    from . import _coset_speedup as _kernel

    BACKEND = "compiled"
except ImportError:
    from . import _coset_py as _kernel

    BACKEND = "pure"

DEFAULT_MAX_COSETS = 100_000


class CosetTable:
    """A complete table for a finite-index subgroup.  Row i gives the target
    coset of coset i under each generator and inverse, columns ordered
    g0, g0^-1, g1, g1^-1, ...  Coset 0 is the subgroup itself."""

    __slots__ = ("num_gens", "rows")

    def __init__(self, num_gens, rows):
        self.num_gens = num_gens
        self.rows = tuple(tuple(r) for r in rows)

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, CosetTable):
            return NotImplemented
        return self.num_gens == other.num_gens and self.rows == other.rows

    def __hash__(self):
        return hash((self.num_gens, self.rows))

    def __repr__(self):
        return "CosetTable(%d generators, %d cosets)" % (self.num_gens, len(self.rows))

    def trace(self, coset, word):
        """Follow a word from a coset; the table is complete, so this always
        lands somewhere."""
        c = coset
        for d in _directions(word):
            c = self.rows[c][d]
        return c

    def to_json_dict(self, names):
        cols = []
        for n in names:
            cols.append(n)
            cols.append(n + "^-1")
        return {
            "cosets": len(self.rows),
            "columns": cols,
            "rows": [list(r) for r in self.rows],
        }


class EnumerationResult(NamedTuple):
    """Outcome of an enumeration: either the subgroup has finite index and a
    complete table was produced, or the live-coset budget ran out."""

    status: str
    index: Optional[int]
    cosets_used: int
    table: Optional[CosetTable]

    @property
    def finite(self):
        return self.status == "finite"

    def to_json_dict(self):
        out = {"status": self.status, "cosets_used": self.cosets_used}
        if self.finite:
            out["index"] = self.index
        return out


def _check_max_cosets(max_cosets):
    """Refuse a coset budget that is not an int (bool included) of at least 1."""
    if type(max_cosets) is not int:
        raise ValueError("coset budget must be an int, got %s" % _quote(max_cosets))
    if max_cosets < 1:
        raise ValueError("coset budget must be positive")


def enumerate_cosets(p, subgroup_words=(), max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of the subgroup generated by subgroup_words in
    the group presented by p.  With no subgroup words this computes the
    order of the group, when finite within budget."""
    _check_max_cosets(max_cosets)
    for w in subgroup_words:
        if w.max_generator() > len(p.generators):
            raise ValueError("subgroup word uses a generator not in the presentation")
    rels = [_directions(r) for r in p.relators]
    subs = [_directions(w) for w in subgroup_words]
    closed, count, rows = _kernel.run(len(p.generators), rels, subs, max_cosets)
    if not closed:
        return EnumerationResult("exhausted", None, count, None)
    return EnumerationResult("finite", count, count, CosetTable(len(p.generators), rows))


def order(p, max_cosets=DEFAULT_MAX_COSETS):
    """Order of the presented group, as an EnumerationResult over the trivial
    subgroup."""
    return enumerate_cosets(p, (), max_cosets)


def is_trivial_bounded(p, max_cosets=DEFAULT_MAX_COSETS):
    """Yes if the presented group collapses to one element within budget, No
    if it finishes with more, Unknown if the budget runs out."""
    res = order(p, max_cosets)
    if not res.finite:
        return CheckOutcome.unknown(
            budget_used=res.cosets_used, evidence={"reason": "coset budget exhausted"}
        )
    if res.index == 1:
        return CheckOutcome.yes({"order": 1}, budget_used=res.cosets_used)
    return CheckOutcome.no({"order": res.index}, budget_used=res.cosets_used)


def word_is_trivial_in_finite(p, w, max_cosets=DEFAULT_MAX_COSETS):
    """Decide whether w represents the identity, by enumerating the whole
    group and tracing w in its regular representation.  Unknown when the
    group does not finish within budget."""
    if w.max_generator() > len(p.generators):
        raise ValueError("word uses a generator not in the presentation")
    res = order(p, max_cosets)
    if not res.finite:
        return CheckOutcome.unknown(
            budget_used=res.cosets_used, evidence={"reason": "coset budget exhausted"}
        )
    end = res.table.trace(0, w)
    if end == 0:
        return CheckOutcome.yes({"order": res.index}, budget_used=res.cosets_used)
    return CheckOutcome.no(
        {"order": res.index, "image_coset": end}, budget_used=res.cosets_used
    )


def weight_one_witness_check(p, t, max_cosets=DEFAULT_MAX_COSETS):
    """Does the normal closure of the word t exhaust the group presented by
    p?  Yes exactly when adding t as a relator kills the group; Unknown when
    the quotient does not finish within budget."""
    if not isinstance(t, Word):
        raise TypeError("witness must be a Word")
    q = quotient(p, [t])
    out = is_trivial_bounded(q, max_cosets)
    if out.is_yes:
        return CheckOutcome.yes({"witness": t.to_pairs()}, budget_used=out.budget_used)
    return out

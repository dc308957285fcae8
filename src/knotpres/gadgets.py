"""Presentation-to-presentation constructions with controlled behaviour.

Each function here takes a finite presentation (sometimes with a word) and
builds a new presentation whose group-level properties track a property of
the input: perfectness, first homology, weight, or collapse to the trivial
group.  Every construction returns a GadgetReport carrying the output, the
embedding of the input generators, and a list of audits that were run while
building it.  Audits marked required raise if they fail; the others record
yes or unknown, since they bound a search that may not finish.
"""

from collections import namedtuple

from .abelian import h1, h1_is_infinite_cyclic, is_perfect
from .coset import weight_one_witness_check, word_is_trivial_in_finite
from .presentations import (
    Presentation,
    direct_product,
    free_product,
    fresh_name,
    hnn_extension,
    is_freely_related,
    parse,
    quotient,
)
from .words import EMPTY, Word, _check_word, commutator

DEFAULT_AUDIT_BUDGET = 10_000

# The two-relator presentation of the order-120 central extension of the
# icosahedral rotation group: c maps to (1 2)(3 4), d to (1 3 5), and the
# square of c generates the centre.
BINARY_ICOSAHEDRAL_TEXT = "< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"

# The generators every perfecting construction adjoins, in this order.
_PERFECTING_NAMES = ("a", "alpha", "b", "beta")


class GadgetReport(namedtuple("GadgetReport", "output provenance generator_map audit")):
    """A constructed presentation together with its audit trail.

    generator_map sends each input generator name to the word carrying it
    into the output.  audit is a list of (check_name, verdict) pairs for the
    checks run at construction time.
    """

    __slots__ = ()

    def __repr__(self):
        # short: the output presentation can run to thousands of characters
        return "GadgetReport(%s, %d generators)" % (self.provenance, len(self.output.generators))

    def to_json_dict(self):
        return {
            "provenance": self.provenance,
            "presentation": str(self.output),
            "generator_map": {
                name: self.output.spell(w) for name, w in self.generator_map.items()
            },
            "audit": [[name, verdict] for name, verdict in self.audit],
        }


def _fresh_names(bases, used):
    used = list(used)
    out = []
    for base in bases:
        name = fresh_name(base, used)
        used.append(name)
        out.append(name)
    return out


def _inclusion_map(g, shift=0):
    return {name: Word([i + 1 + shift]) for i, name in enumerate(g.generators)}


def _h1_infinite_cyclic(out, what):
    """The audit entry for H1(out) = Z; any other H1 raises RuntimeError."""
    if not h1_is_infinite_cyclic(out):
        raise RuntimeError("%s lost infinite cyclic homology" % what)
    return ("h1_infinite_cyclic", "yes")


def _perfecting_rows(m, addendum=False, word=None):
    """The five relation families that force every generator to die in the
    abelianisation, over the four generators a, alpha, b, beta adjoined after
    m input generators: conjugation rows tying a and alpha to b and beta, one
    graded row per input generator (plus one with no input generator when
    ``addendum`` is set), and two closing rows tying b and beta to the
    commutators of the input generators with a and alpha (multiplied over
    all of them), or of ``word`` when one is given.
    """
    a, al, b, be = (Word([m + i]) for i in range(1, 5))
    if word is None:
        left4 = left5 = EMPTY
        for i in range(1, m + 1):
            left4 = left4 * commutator(Word([i]), a)
            left5 = left5 * commutator(Word([i]), al)
    else:
        left4, left5 = commutator(word, a), commutator(word, al)
    rels = []
    rels.append(a * al * ~a * (b ** -2))
    rels.append(al * a * ~al * ~(b * be * ~b))
    for i in range(1, m + 2 if addendum else m + 1):
        x = Word([i]) if i <= m else EMPTY
        left = (a ** (2 * i)) * x * (al ** (2 * i))
        right = (be ** (2 * i + 2)) * b * (be ** (-(2 * i + 2)))
        rels.append(left * ~right)
    rels.append(left4 * ~((be ** 2) * b * (be ** -2)))
    rels.append(left5 * ~(be * b * be * ~b * ~be))
    return rels


def _perfected(g, provenance, addendum=False, word=None):
    """The input's generators and relators with the perfecting generators
    and rows adjoined, audited perfect."""
    names = _fresh_names(_PERFECTING_NAMES, g.generators)
    rels = g.relators + tuple(_perfecting_rows(len(g.generators), addendum, word))
    out = Presentation._trusted(g.generators + tuple(names), rels)
    if not is_perfect(out):
        raise RuntimeError("%s produced a non-perfect output" % provenance)
    return GadgetReport(out, provenance, _inclusion_map(g), [("h1_trivial", "yes")])


def perfect_embed(g, addendum=False):
    """Embed the presented group into a perfect one.

    Adjoins four generators and five relation families; the output presents
    a perfect group containing the input group, and presents the trivial
    group whenever the input does.  With addendum=True an extra graded row
    (with no input generator in it) is added, which makes the second
    homology infinite for nontrivial inputs.
    """
    return _perfected(g, "perfect_embed", addendum)


def _square_embed(g, addendum=False):
    """Direct square of the perfect embedding with a stable letter s that
    flips its factors, and the embedding's generator count k; s is
    generator 2k + 1."""
    P = perfect_embed(g, addendum).output
    k = len(P.generators)
    pp = direct_product(P, P, ("_1", "_2"))
    s_name = fresh_name("s", pp.generators)
    flips = [(Word([k + j + 1]), Word([j + 1])) for j in range(k)]
    return k, hnn_extension(pp, s_name, flips)


def k3_embed(g, audit_budget=DEFAULT_AUDIT_BUDGET):
    """Embed the input group into one with infinite cyclic first homology,
    trivial second homology, and a single normal generator.

    Three stable letters are stacked on the direct square of the perfect
    embedding: s flips the factors one way, t folds the second factor onto
    the diagonal, and u squares both s and t.
    """
    k, q = _square_embed(g)
    t_name = fresh_name("t", q.generators)
    q2 = hnn_extension(
        q, t_name, [(Word([k + j + 1]), Word([j + 1, k + j + 1])) for j in range(k)]
    )
    u_name = fresh_name("u", q2.generators)
    s = Word([2 * k + 1])
    t = Word([2 * k + 2])
    out = hnn_extension(q2, u_name, [(s, s * s), (t, t * t)])
    audit = [_h1_infinite_cyclic(out, "tower construction")]
    witness = weight_one_witness_check(out, Word([2 * k + 3]), audit_budget)
    audit.append(("normal_closure_collapses:" + u_name, witness.verdict))
    return GadgetReport(out, "k3_embed", _inclusion_map(g), audit)


def k3_minus_k2(g):
    """Build a group with infinite cyclic first homology and trivial second
    homology whose commutator subgroup has nonzero rational second homology
    exactly when the input group is nontrivial.

    Two copies of the flip extension of the perfect square are glued by
    exchanging each copy's stable letter with the other copy's distinguished
    free pair, and one more stable letter folds both second factors onto
    their diagonals.
    """
    m = len(g.generators)
    k, q = _square_embed(g, addendum=True)
    nq = 2 * k + 1
    qq = free_product(q, q, ("_1", "_2"))
    # the distinguished element (a in one factor, alpha in the other)
    q_elem = Word([m + 1, k + m + 2])
    r = quotient(qq, [Word([nq]) * ~q_elem.shift(nq), q_elem * ~Word([2 * nq])])
    pairs = []
    for off in (0, nq):
        for j in range(k):
            pairs.append(
                (Word([off + k + j + 1]), Word([off + j + 1, off + k + j + 1]))
            )
    t_name = fresh_name("t", r.generators)
    out = hnn_extension(r, t_name, pairs)
    audit = [_h1_infinite_cyclic(out, "glued construction")]
    return GadgetReport(out, "k3_minus_k2", _inclusion_map(g), audit)


def s_minus_k3(g, audit_budget=DEFAULT_AUDIT_BUDGET):
    """Build a group with a distinguished central square killed: the result
    has infinite cyclic first homology, nonzero second homology for
    nontrivial inputs, and carries the structure needed downstream to admit
    a deficiency-style witness presentation.

    The core is a central extension mixing the perfecting rows with the
    order-120 triangle-lift relations and one gluing relation b = de; the
    input relators are imposed only as central words, never as trivial ones.
    """
    m = len(g.generators)
    names = _fresh_names(_PERFECTING_NAMES + ("c", "d", "e"), g.generators)
    total = m + 7
    b, c, d, e = (Word([m + i]) for i in (3, 5, 6, 7))
    rels = _perfecting_rows(m)
    five = (~d * c) ** 5
    rels.append(c * c * ~five)
    rels.append(d * d * d * ~five)
    rels.append(b * ~(d * e))
    central = list(g.relators) + [c * c, e * e]
    for w in central:
        for i in range(1, total + 1):
            rels.append(commutator(w, Word([i])))
    core = Presentation._trusted(g.generators + tuple(names), tuple(rels))
    reduced = quotient(core, [c * c])
    tau = fresh_name("tau", reduced.generators)
    out = direct_product(Presentation._trusted((tau,), ()), reduced)
    audit = [_h1_infinite_cyclic(out, "central extension")]
    sanity = parse(BINARY_ICOSAHEDRAL_TEXT)
    cc = Word([1])
    dd = Word([2])
    braid = (dd * cc * ~dd * cc) ** 2 * dd
    identity = cc * cc * ~commutator(cc, braid)
    check = word_is_trivial_in_finite(sanity, identity, audit_budget)
    if not check.is_yes:
        raise RuntimeError("central square identity not confirmed in the order-120 "
                           "group within budget (%s)" % check.verdict)
    audit.append(("central_square_is_commutator", "yes"))
    return GadgetReport(out, "s_minus_k3", _inclusion_map(g, shift=1), audit)


def m_minus_s(g, audit_budget=DEFAULT_AUDIT_BUDGET):
    """Square the third perfecting generator by a stable letter.

    The output has infinite cyclic first homology and nonzero second
    homology for nontrivial inputs, and the stable letter normally generates
    the whole group for every input; the closing audit certifies that by a
    bounded enumeration of the quotient.
    """
    P = perfect_embed(g).output
    m = len(g.generators)
    b = Word([m + 3])
    s_name = fresh_name("s", P.generators)
    out = hnn_extension(P, s_name, [(b, b * b)])
    audit = [_h1_infinite_cyclic(out, "squaring extension")]
    s = Word([len(out.generators)])
    witness = weight_one_witness_check(out, s, audit_budget)
    if not witness.is_yes:
        raise RuntimeError(
            "stable letter failed to normally generate within budget (%s)"
            % witness.verdict
        )
    audit.append(("normal_closure_collapses:" + s_name, "yes"))
    return GadgetReport(out, "m_minus_s", _inclusion_map(g), audit)


def weight_gadget(u, w):
    """Turn a word in the first two generators into a weight question.

    The input group is stretched by three stable letters, glued to a fixed
    three-generator partner along the word and the top stable letter, and
    the result is free-producted with one fresh infinite cyclic factor.  The
    output is infinite cyclic when the word is trivial in the input group;
    when the word is nontrivial (and the input is torsion free) no single
    element normally generates the output.
    """
    if len(u.generators) < 2:
        raise ValueError("need at least two designated generators")
    _check_word(w, 2, "word")
    p = len(u.generators)
    u1 = Word([1])
    u2 = Word([2])
    y1_name, y2_name, z_name = _fresh_names(["y1", "y2", "z"], u.generators)
    k = hnn_extension(u, y1_name, [(u1, u1 * u1)])
    k = hnn_extension(k, y2_name, [(u2, u2 * u2)])
    y1 = Word([p + 1])
    y2 = Word([p + 2])
    k = hnn_extension(k, z_name, [(y1, y1 * y1), (y2, y2 * y2)])
    q_names = _fresh_names(["r", "s", "t"], k.generators)
    r = Word([1])
    s = Word([2])
    t = Word([3])
    q = Presentation._trusted(tuple(q_names), (~s * r * s * (r ** -2), ~t * s * t * (s ** -2)))
    kq = free_product(k, q)
    off = len(k.generators)
    d_w = quotient(kq, [w * ~Word([off + 3]), Word([p + 3]) * ~Word([off + 1])])
    g0 = fresh_name("g0", d_w.generators)
    out = free_product(Presentation._trusted((g0,), ()), d_w)
    audit = [("h1", str(h1(out)))]
    return GadgetReport(out, "weight_gadget", _inclusion_map(u, shift=1), audit)


def homology_gadget(g, u, y, w):
    """Splice the relators of a freely related presentation into commutators
    against another group's generators.

    The output keeps all three generator blocks; the first block's relators
    are imposed only up to commutators [w, y_i].  When w is trivial the
    output group is the free product of all three inputs; when w is
    nontrivial in a suitable partner group the higher homology is flattened
    instead.  Either way the first homology equals the direct sum of the
    inputs' first homologies.
    """
    free_check = is_freely_related(g)
    if not free_check.is_yes:
        raise ValueError("first input must be freely related")
    n = len(g.relators)
    if len(y.generators) < n:
        raise ValueError(
            "third input needs at least %d generators, has %d"
            % (n, len(y.generators))
        )
    _check_word(w, len(u.generators), "word")
    names = _fresh_names(g.generators + u.generators + y.generators, ())
    m = len(g.generators)
    p = len(u.generators)
    rels = [r.shift(m) for r in u.relators]
    rels += [r.shift(m + p) for r in y.relators]
    w_in = w.shift(m)
    for i in range(1, n + 1):
        yi = Word([m + p + i])
        rels.append(g.relators[i - 1] * ~commutator(w_in, yi))
    out = Presentation._trusted(tuple(names), tuple(rels))
    audit = [("h1", str(h1(out)))]
    gen_map = _inclusion_map(g)
    return GadgetReport(out, "homology_gadget", gen_map, audit)


def whitehead_gadget(p, w):
    """Perfect the input presentation against a designated word.

    Same adjoined generators and graded rows as the perfect embedding, but
    the two closing rows tie b and beta to the commutators of the word with
    the new generators instead of products over all input generators.  The
    first homology of the output is always trivial; the output group is
    trivial exactly when the word is trivial in the input group.
    """
    _check_word(w, len(p.generators), "word")
    return _perfected(p, "whitehead_gadget", word=w)

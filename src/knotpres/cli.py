"""Command-line front end.

One subcommand per library area: homology (h1, snf), free-subgroup folding
(fold), coset enumeration (coset-enum), the gadget constructions
(construct), the shape recognizers (check), identity-sequence verification
(verify-identity), the weight-one stream (enumerate), and budgeted
presentation rewrites (tietze).

Exit codes: 0 affirmative or plain success, 1 negative, 2 unknown or budget
exhausted, 3 usage or parse errors.  Results go to stdout, diagnostics to
stderr, and identical invocations print identical bytes.
"""

import argparse
import functools
import json
import sys

from .abelian import h1, smith_normal_form
from .coset import DEFAULT_MAX_COSETS, _check_max_cosets, enumerate_cosets
from .foldings import contains, is_basis, rank
from .gadgets import (
    homology_gadget,
    k3_embed,
    k3_minus_k2,
    m_minus_s,
    perfect_embed,
    s_minus_k3,
    weight_gadget,
    whitehead_gadget,
)
from .presentations import Presentation, TietzeBudget, parse, serialize, tietze_neighbors
from .recognize import (
    DEFAULT_ELIMINATION_LETTERS,
    artin_check,
    enumerate_weight_one,
    is_wirtinger,
    kervaire_report,
    two_knot_check,
    verify_identity,
)
from .words import _quote

SCHEMA_VERSION = 1

_EXIT = {"yes": 0, "no": 1, "unknown": 2}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int(text):
    """argparse's ``type=int`` with the refused value's quote cut short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %s" % _quote(text)) from None


def _read_source(inline, path, what):
    if inline is not None and path is not None:
        raise _UsageError("give the %s inline or via --input, not both" % what)
    if inline is not None:
        return inline
    if path is None:
        raise _UsageError("missing %s (inline argument or --input)" % what)
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_presentation(args):
    return parse(_read_source(args.presentation, args.input, "presentation"))


def _words(p, text):
    """The comma-separated words of ``text``, their letters bounded together."""
    words, used = [], 0
    for part in map(str.strip, text.split(",")):
        if part:
            words.append(p.word(part, used))
            used += len(words[-1])
    return words


def _cmd_h1(args):
    inv = h1(_load_presentation(args))
    payload = {"free_rank": inv.free_rank, "torsion": list(inv.torsion),
               "display": str(inv)}
    return 0, payload, [str(inv)]


def _parse_matrix(text):
    try:
        m = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("matrix must be a JSON array of rows: %s" % exc)
    if not isinstance(m, list) or any(not isinstance(row, list) for row in m):
        raise ValueError("matrix must be a JSON array of rows")
    widths = {len(row) for row in m}
    if len(widths) > 1:
        raise ValueError("matrix rows must all have the same length")
    for row in m:
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValueError("matrix entries must be integers")
    return m


def _cmd_snf(args):
    m = _parse_matrix(_read_source(args.matrix, args.input, "matrix"))
    d, u, v = smith_normal_form(m)
    return 0, {"D": d, "U": u, "V": v}, None


def _cmd_fold(args):
    names = tuple("x%d" % (i + 1) for i in range(args.alphabet))
    scratch = Presentation(names)
    words = _words(scratch, args.words)
    ok = is_basis(args.alphabet, words)
    payload = {"rank": rank(args.alphabet, words), "is_basis": ok}
    lines = ["rank: %d" % payload["rank"], "basis: %s" % ("yes" if ok else "no")]
    if args.member is not None:
        ok = payload["member"] = contains(args.alphabet, words, scratch.word(args.member))
        lines.append("member: %s" % ("yes" if ok else "no"))
    return (0 if ok else 1), payload, lines


def _cmd_coset_enum(args):
    p = _load_presentation(args)
    subgroup = _words(p, args.subgroup or "")
    res = enumerate_cosets(p, subgroup, args.max)
    payload = res.to_json_dict()
    if not res.finite:
        return 2, payload, ["Exhausted(%d)" % res.cosets_used]
    lines = ["Finite(%d)" % res.index]
    if args.dump_table:
        payload["table"] = res.table.to_json_dict(list(p.generators))
        lines.append(json.dumps(payload["table"]))
    return 0, payload, lines


def _designated(args, p):
    if args.w is None:
        raise _UsageError("construct %s needs --w" % args.kind)
    return p.word(args.w)


# Each construct kind's builder, called with the parsed arguments and input
# presentations.  The lambdas look the gadget functions up in this module
# each time a kind runs, so a later rebinding of those names is seen.
_CONSTRUCTORS = {
    "prop1": lambda args, ps: perfect_embed(ps[0], addendum=args.addendum),
    "k3embed": lambda args, ps: k3_embed(ps[0], audit_budget=args.max),
    "k3k2": lambda args, ps: k3_minus_k2(ps[0]),
    "sk3": lambda args, ps: s_minus_k3(ps[0], audit_budget=args.max),
    "ms": lambda args, ps: m_minus_s(ps[0], audit_budget=args.max),
    "weight": lambda args, ps: weight_gadget(ps[0], _designated(args, ps[0])),
    "homology": lambda args, ps: homology_gadget(*ps, _designated(args, ps[1])),
    "whitehead": lambda args, ps: whitehead_gadget(ps[0], _designated(args, ps[0])),
}


def _cmd_construct(args):
    # the budget and count are checked before any file is read or any text parsed
    _check_max_cosets(args.max)
    paths = args.input or []
    count = 3 if args.kind == "homology" else 1
    got = len(args.presentations) + len(paths)
    if got != count:
        raise _UsageError(
            "construct %s needs %d presentation(s), got %d" % (args.kind, count, got)
        )
    texts = list(args.presentations)
    texts += [_read_source(None, path, "presentation") for path in paths]
    rep = _CONSTRUCTORS[args.kind](args, [parse(t) for t in texts])
    return 0, rep.to_json_dict(), None


def _cmd_check(args):
    p = _load_presentation(args)
    if args.kind == "kervaire":
        candidates = _words(p, args.candidates or "")
        budget = DEFAULT_MAX_COSETS if args.budget is None else args.budget
        payload = evidence = kervaire_report(p, candidates, max_cosets=budget)
    else:
        if args.kind == "wirtinger":
            out = is_wirtinger(p)
        elif args.kind == "artin":
            out = artin_check(p)
        else:
            budget = DEFAULT_ELIMINATION_LETTERS if args.budget is None else args.budget
            out = two_knot_check(p, args.h, budget)
        payload, evidence = out.to_json_dict(), out.evidence
    lines = [payload["verdict"].capitalize()]
    if args.verbose and evidence is not None:
        lines.append(json.dumps(evidence))
    return _EXIT[payload["verdict"]], payload, lines


def _cmd_verify_identity(args):
    p = _load_presentation(args)
    raw = args.pi
    if raw == "-":
        raw = sys.stdin.read()
    try:
        entries = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("identity sequence must be JSON: %s" % exc)
    if not isinstance(entries, list):
        raise ValueError("identity sequence must be a JSON array")
    triples, used = [], 0
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("each entry must be [conjugator, relator, sign]")
        conj, index, sign = entry
        if not isinstance(conj, str):
            raise ValueError("conjugator must be a word string, got %s" % _quote(conj))
        triples.append((p.word(conj, used), index, sign))
        used += len(triples[-1][0])
    ok = verify_identity(p, triples)
    return (0 if ok else 1), {"verified": ok}, ["true" if ok else "false"]


def _cmd_enumerate(args):
    items = [
        (serialize(pres), pres.spell(witness))
        for pres, witness in enumerate_weight_one(args.budget)
    ]
    payload = {"emissions": [{"presentation": t, "witness": w} for t, w in items]}
    return 0, payload, ["%s\t%s" % item for item in items]


def _cmd_tietze(args):
    p = _load_presentation(args)
    budget = TietzeBudget(max_relator_len=args.max_relator_len)
    rows = [(move.kind, serialize(q)) for q, move in tietze_neighbors(p, budget)]
    payload = {"neighbors": [{"kind": k, "presentation": t} for k, t in rows]}
    return 0, payload, ["%s\t%s" % row for row in rows]


def _add_format(sp):
    sp.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_presentation_source(sp):
    sp.add_argument(
        "presentation", nargs="?", help="presentation text, e.g. '< x | x^2 >'"
    )
    sp.add_argument("--input", help="read the presentation from a file, - for stdin")


def build_parser():
    parser = _Parser(prog="knotpres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("h1", help="first homology of a presentation")
    _add_presentation_source(sp)
    _add_format(sp)
    sp.set_defaults(handler=_cmd_h1)

    sp = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    sp.add_argument("matrix", nargs="?", help="JSON array of rows")
    sp.add_argument("--input", help="read the matrix from a file, - for stdin")
    _add_format(sp)
    sp.set_defaults(handler=_cmd_snf)

    sp = sub.add_parser("fold", help="fold subgroup generators in a free group")
    sp.add_argument("--alphabet", type=_int, required=True, help="free rank")
    sp.add_argument(
        "--words", required=True, help="comma-separated words over x1..xn"
    )
    sp.add_argument("--member", help="also test membership of this word")
    _add_format(sp)
    sp.set_defaults(handler=_cmd_fold)

    sp = sub.add_parser("coset-enum", help="enumerate cosets of a subgroup")
    _add_presentation_source(sp)
    sp.add_argument("--subgroup", help="comma-separated subgroup generator words")
    sp.add_argument(
        "--max", type=_int, default=DEFAULT_MAX_COSETS,
        help="live-coset budget (default %(default)s)",
    )
    sp.add_argument(
        "--dump-table", action="store_true", help="print the coset table as JSON"
    )
    _add_format(sp)
    sp.set_defaults(handler=_cmd_coset_enum)

    sp = sub.add_parser("construct", help="run a gadget construction")
    sp.add_argument("kind", choices=_CONSTRUCTORS)
    sp.add_argument(
        "presentations", nargs="*", help="input presentation(s), inline"
    )
    sp.add_argument(
        "--input", action="append", help="read an input presentation from a file"
    )
    sp.add_argument("--w", help="designated word (weight, homology, whitehead)")
    sp.add_argument(
        "--addendum", action="store_true", help="extra graded row (prop1 only)"
    )
    sp.add_argument(
        "--max", type=_int, default=DEFAULT_MAX_COSETS,
        help="coset budget for audits (default %(default)s)",
    )
    _add_format(sp)
    sp.set_defaults(handler=_cmd_construct)

    sp = sub.add_parser("check", help="run a shape recognizer")
    sp.add_argument("kind", choices=("wirtinger", "artin", "twoknot", "kervaire"))
    _add_presentation_source(sp)
    sp.add_argument("--h", type=_int, default=0, help="pair count (twoknot)")
    sp.add_argument("--candidates", help="comma-separated words (kervaire)")
    sp.add_argument(
        "--budget",
        type=_int,
        help="elimination letters (twoknot) or coset budget (kervaire)",
    )
    sp.add_argument(
        "--verbose", action="store_true", help="print evidence in text mode"
    )
    _add_format(sp)
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("verify-identity", help="verify an identity sequence")
    _add_presentation_source(sp)
    sp.add_argument(
        "--pi",
        required=True,
        help='JSON entries [["conjugator", relator, sign], ...], - for stdin',
    )
    _add_format(sp)
    sp.set_defaults(handler=_cmd_verify_identity)

    sp = sub.add_parser(
        "enumerate", help="stream weight-one presentations with witnesses"
    )
    sp.add_argument("--budget", type=_int, default=10, help="number of emissions")
    _add_format(sp)
    sp.set_defaults(handler=_cmd_enumerate)

    sp = sub.add_parser("tietze", help="list budgeted presentation rewrites")
    _add_presentation_source(sp)
    sp.add_argument(
        "--max-relator-len", type=_int, default=TietzeBudget().max_relator_len,
        help="relator length cap (default %(default)s)",
    )
    _add_format(sp)
    sp.set_defaults(handler=_cmd_tietze)

    return parser


# Built on first use, not at import, and reused: parse_args returns a fresh
# Namespace each call and "append" copies its list, so no call sees another's
# arguments.
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        code, payload, lines = args.handler(args)
        # Rendered inside the try: json.dumps raises ValueError on huge ints.
        if args.format == "json":
            lines = [json.dumps(dict(payload, schema_version=SCHEMA_VERSION))]
        elif lines is None:
            lines = [json.dumps(payload)]
        for line in lines:
            print(line)
        return code
    except _UsageError as exc:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

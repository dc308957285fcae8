"""Golden CLI corpus: every subcommand's exact bytes, frozen in golden_cli.json.

Each case is one ``cli.main`` invocation; the corpus records its exit code,
stdout and stderr.  The test runs the whole list twice in one process, so it
also checks that nothing carries over from one call to the next.

Regenerate (only for a deliberate, documented output change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os

from knotpres.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"
A5 = "< c, d | c^2, d^3, (c d)^5 >"
BINARY_ICOSAHEDRAL = "< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"
TWO_KNOT = "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, x2^-1 x1 x2 x1 x2^-1 x1^-1 >"
FIGURE_EIGHT = "< x, y | y^-1 x y x^-1 y x y^-1 x^-1 y x^-1 >"


def _both(*argv):
    """The same call in text and in JSON output."""
    return [list(argv), list(argv) + ["--format", "json"]]


CASES = (
    _both("h1", TREFOIL)
    + _both("h1", "< x | x^2 >")
    + _both("h1", "< x | x >")
    + _both("h1", "< a, b, c | a^2 b^4, a^-2 b^6 c^3, a b a^-1 b^-1 >")
    + _both("snf", "[[2,4,4],[-6,6,12],[10,-4,-16]]")
    + _both("snf", "[[0,0,3],[0,1,0],[6,0,0],[0,0,0]]")
    + _both("snf", "[[1,0,2,0,-3],[0,0,4,6,0],[2,1,0,0,8],"
            "[0,-1,0,9,0],[4,0,6,0,10],[0,3,0,-12,1]]")
    + _both("snf", "[]")
    + _both("fold", "--alphabet", "2", "--words", "x1 x2, x2 x1")
    + _both("fold", "--alphabet", "2", "--words", "x1^2, x2", "--member", "x1^4 x2")
    + _both("fold", "--alphabet", "1", "--words", "x1^2, x1^3")
    + _both("coset-enum", A5, "--max", "1000")
    + _both("coset-enum", "< x | >", "--max", "50")
    + _both("coset-enum", "< s, t | s^3, t^2, (s t)^2 >", "--subgroup", "s",
            "--dump-table")
    + _both("coset-enum", "< a, b | a b a^-1 b^-1 >", "--max", "50", "--dump-table")
    + _both("construct", "prop1", TREFOIL)
    + _both("construct", "prop1", "< x | >", "--addendum")
    + _both("construct", "k3embed", TREFOIL, "--max", "20000")
    + _both("construct", "k3k2", TREFOIL)
    + _both("construct", "k3k2", FIGURE_EIGHT)
    + _both("construct", "sk3", "< x | >", "--max", "20000")
    + _both("construct", "ms", TREFOIL, "--max", "20000")
    + _both("construct", "weight", "< u1, u2 | u1 u2 u1^-1 >", "--w", "u1 u2^-1")
    + _both("construct", "homology", "< f1, f2 | f1 f2^2 >", BINARY_ICOSAHEDRAL,
            "< y1, y2 | y1, y2 >", "--w", "c d^-1")
    + _both("construct", "whitehead", TREFOIL, "--w", "x y^-1")
    + _both("check", "wirtinger", "< x1, x2 | x1^-1 x2 >", "--verbose")
    + _both("check", "artin", "< x1, x2 | x1^-1 x2, x2^-1 x1 >")
    + _both("check", "twoknot", TWO_KNOT, "--verbose")
    + _both("check", "twoknot", TWO_KNOT, "--budget", "0", "--verbose")
    + _both("check", "kervaire", TREFOIL, "--candidates", "y, x y", "--verbose")
    + _both("check", "kervaire", "< x | x^2 >", "--candidates", "x")
    + _both("verify-identity", "< a | a^2 >", "--pi", '[["a", 0, 1], ["1", 0, -1]]')
    + _both("verify-identity", "< a | a^2 >", "--pi", '[["1", 0, 1]]')
    + _both("enumerate", "--budget", "12")
    + _both("enumerate", "--budget", "0")
    + _both("tietze", "< x | x >")
    + _both("tietze", "< a, b | a b a^-1 >", "--max-relator-len", "6")
    + _both("tietze", "< | >")
    + [
        ["h1"],
        ["fold", "--alphabet", "2"],
        ["construct", "homology", TREFOIL, "--w", "x"],
        ["construct", "ms", "< x | >", "--max", "2"],
        ["verify-identity", "< x | x >", "--pi", '[["x", 0, 2]]'],
    ]
    # parse errors, one per kind; long inputs give an offset, not the text
    + [
        ["h1", "< x | x $ >"],
        ["h1", "< x | x $" + "y" * 100 + " >"],
        ["h1", "< x | x"],
        ["h1", "< x | " + "x " * 40],
        ["h1", "< x | x^"],
        ["h1", "< x | (x, >"],
        ["h1", "< x | " + "(" * 40 + "x" + ")" * 39 + " >"],
        ["h1", "< x | x ) >"],
        ["h1", "< x y | >"],
        ["h1", "< 1 | >"],
        ["h1", "< x | y >"],
        ["h1", "< x | 1^2 >"],
        ["h1", "< x | () >"],
        ["h1", "< x | x^y >"],
        ["h1", "< x | x > junk"],
        ["h1", "< x | x^1000001 >"],
        ["h1", "< x | x^600000 x^-600000 >"],
        ["h1", "< x, y | ((x y)^1000)^1001 >"],
        ["h1", "< x, x | y >"],
        ["h1", "< x, x | x >"],
        ["coset-enum", "< x | x^2 >", "--subgroup", "x, y"],
        ["construct", "weight", "< u | >", "--w", "u )"],
        ["fold", "--alphabet", "1", "--words", "x1, (x1"],
    ]
)


def run_case(argv):
    """Run one CLI call in this process; return its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_golden_corpus_bytes_twice_in_one_process(monkeypatch):
    # The CLI reads no environment: a junk budget variable changes no byte.
    monkeypatch.setenv("KNOTPRES_MAX_COSETS", "junk")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [entry["argv"] for entry in golden] == CASES
    kinds = {argv[1] for argv in CASES if argv[0] == "construct"}
    assert len(kinds) == 8
    for _ in range(2):
        for entry in golden:
            assert run_case(entry["argv"]) == entry


if __name__ == "__main__":
    corpus = [run_case(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")

import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import knotpres
from knotpres.cli import build_parser, main
from knotpres.coset import DEFAULT_MAX_COSETS
from knotpres.presentations import TietzeBudget, parse
from oracles import matmul

TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"
A5 = "< c, d | c^2, d^3, (c d)^5 >"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h1_text(capsys):
    code, out, _ = run(capsys, "h1", "< y1, y2 | y1 y2 y1 y2^-1 y1^-1 y2^-1 >")
    assert code == 0
    assert out == "Z\n"


def test_h1_json(capsys):
    code, out, _ = run(capsys, "h1", "< x | x^2 >", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "free_rank": 0,
        "torsion": [2],
        "display": "Z/2",
        "schema_version": 1,
    }


def test_h1_trivial_display(capsys):
    code, out, _ = run(capsys, "h1", "< x | x >")
    assert code == 0 and out == "0\n"


def test_snf_transforms_verify(capsys):
    code, out, _ = run(capsys, "snf", "[[2,0],[0,3]]")
    assert code == 0
    payload = json.loads(out)
    product = matmul(matmul(payload["U"], [[2, 0], [0, 3]]), payload["V"])
    assert product == payload["D"]
    assert payload["D"][0][0] == 1 and payload["D"][1][1] == 6


def test_snf_rejects_ragged_matrix(capsys):
    assert run(capsys, "snf", "[[1,2],[3]]") == (3, "", "error: ragged matrix\n")


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[1,2]", "matrix must be a JSON array of rows"),
        ("{}", "matrix must be a JSON array"),
        ("[[1.5]]", "matrix entries must be int, not float"),
        ("[[true]]", "matrix entries must be int, not bool"),
    ],
)
def test_snf_rejects_rows_that_are_not_lists_of_ints(capsys, matrix, message):
    assert run(capsys, "snf", matrix) == (3, "", "error: %s\n" % message)


def test_fold_rank_and_basis(capsys):
    code, out, _ = run(capsys, "fold", "--alphabet", "2", "--words", "x1 x2, x2 x1")
    assert code == 0
    assert out == "rank: 2\nbasis: yes\n"
    code, out, _ = run(
        capsys, "fold", "--alphabet", "1", "--words", "x1^2, x1^3"
    )
    assert code == 1
    assert "basis: no" in out


def test_fold_membership(capsys):
    code, out, _ = run(
        capsys,
        "fold",
        "--alphabet",
        "2",
        "--words",
        "x1^2, x2",
        "--member",
        "x1^4 x2",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["member"] is True
    code, _, _ = run(
        capsys, "fold", "--alphabet", "2", "--words", "x1^2, x2", "--member", "x1"
    )
    assert code == 1


def test_fold_alphabet_size_costs_nothing(capsys):
    # Only the names x<k> that the words use are read, however wide the
    # alphabet.  Listing all 10**12 names would run out of memory, so a
    # child process that is stopped after two seconds tries it first.
    argv = ["fold", "--alphabet", "1000000000000", "--words", "x1 x2, x2 x1"]
    proc = subprocess.run([sys.executable, "-m", "knotpres.cli", *argv],
                          capture_output=True, text=True, timeout=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rank: 2\nbasis: yes\n", "")
    for extra in ((), ("--member", "x2 x1"), ("--format", "json")):
        start = time.perf_counter()
        wide = run(capsys, "fold", "--alphabet", "1000000000000", "--words", "x1 x2, x2 x1", *extra)
        assert time.perf_counter() - start < 0.5
        assert wide == run(capsys, "fold", "--alphabet", "2", "--words", "x1 x2, x2 x1", *extra)
    assert wide[0] == 0
    for alphabet, name in (("2", "x3"), ("2", "x0"), ("2", "x01"), ("12", "x13"),
                           ("1000000000000", "x1000000000001"), ("0", "x1"), ("-3", "x1")):
        code, out, err = run(capsys, "fold", "--alphabet", alphabet, "--words", "x1, " + name)
        assert (code, out, err) == (3, "", "error: unknown generator %r\n" % name)
    code, out, err = run(capsys, "fold", "--alphabet", "2", "--words", "x1", "--member", "x3")
    assert (code, out, err) == (3, "", "error: unknown generator 'x3'\n")
    # a name with a 10,000-digit index is unknown, not an int conversion error
    code, out, err = run(capsys, "fold", "--alphabet", "2", "--words", "x" + "2" * 10_000)
    assert code == 3 and out == "" and err.startswith("error: unknown generator 'x222")


def test_many_words_read_against_one_name_index(capsys):
    # The generator names are indexed once per presentation, not once per
    # word: with 4,000 generators and 4,000 words, an index per word took
    # about 1.7 s for coset-enum and 2.9 s for verify-identity.
    n = 4000
    names = ", ".join("g%d" % i for i in range(n))
    for pres, argv, expected in (
        ("< %s | %s >" % (names, names), ["coset-enum", "--subgroup", names], "Finite(1)\n"),
        ("< %s | %s >" % (names, names), ["coset-enum", "--subgroup", names, "--format", "json"],
         '{"status": "finite", "cosets_used": 1, "index": 1, "schema_version": 1}\n'),
        ("< %s | g0 >" % names,
         ["verify-identity", "--pi", json.dumps([[f"g{i}", 0, s] for i in range(n) for s in (1, -1)])],
         "true\n"),
    ):
        start = time.perf_counter()
        assert run(capsys, argv[0], pres, *argv[1:]) == (0, expected, "")
        assert time.perf_counter() - start < 0.5, argv[0]


def test_coset_enum_finite(capsys):
    code, out, _ = run(capsys, "coset-enum", A5, "--max", "1000")
    assert code == 0
    assert out == "Finite(60)\n"


def test_coset_enum_exhausted(capsys):
    code, out, _ = run(capsys, "coset-enum", "< x | >", "--max", "50")
    assert code == 2
    assert out.startswith("Exhausted(")


def test_coset_enum_subgroup_and_table(capsys):
    code, out, _ = run(
        capsys,
        "coset-enum",
        "< s, t | s^3, t^2, (s t)^2 >",
        "--subgroup",
        "s",
        "--format",
        "json",
        "--dump-table",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "finite"
    assert payload["index"] == 2
    assert len(payload["table"]["rows"]) == 2
    assert payload["table"]["columns"][0] == "s"


def test_construct_report_round_trips(capsys):
    code, out, _ = run(capsys, "construct", "prop1", "< x | >", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "perfect_embed"
    assert payload["schema_version"] == 1
    rebuilt = parse(payload["presentation"])
    assert len(rebuilt.generators) == 5
    assert len(rebuilt.relators) == 5


def test_construct_homology_needs_three_inputs(capsys):
    code, _, err = run(capsys, "construct", "homology", "< x | x >", "--w", "c")
    assert code == 3
    assert "3 presentation" in err
    code, out, _ = run(
        capsys,
        "construct",
        "homology",
        "< x | x >",
        "< c | >",
        "< a | >",
        "--w",
        "c",
    )
    assert code == 0
    assert json.loads(out)["provenance"] == "homology_gadget"


def test_construct_checks_the_count_before_reading_any_input(capsys, tmp_path):
    # 60 inputs of 4 million letters each would exhaust memory if parsed.
    long_text = "< x | x^1000000, x^1000000, x^1000000, x^1000000 >"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "construct", "prop1", *[long_text] * 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.endswith("\nerror: construct prop1 needs 1 presentation(s), got 60\n")
    assert peak < 16 * 2**20
    missing = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, "construct", "prop1", "< x | >", "--input", missing)
    assert code == 3
    assert err.endswith("\nerror: construct prop1 needs 1 presentation(s), got 2\n")
    # the count error wins over a malformed text
    code, _, err = run(capsys, "construct", "homology", "< x | x", "< y | >")
    assert code == 3
    assert err.endswith("\nerror: construct homology needs 3 presentation(s), got 2\n")


def test_construct_missing_word_flag(capsys):
    code, _, err = run(capsys, "construct", "weight", "< u1, u2 | >")
    assert code == 3
    assert "--w" in err


def test_construct_audit_failure_is_budget_exit(capsys):
    code, _, err = run(capsys, "construct", "ms", "< x | >", "--max", "2")
    assert code == 2
    assert "within budget" in err


def test_construct_sk3_audit_out_of_budget_names_the_verdict(capsys):
    # the order-120 sanity group needs between 200 and 300 live cosets
    code, out, err = run(capsys, "construct", "sk3", "< x | >", "--max", "200")
    assert (code, out) == (2, "")
    assert err == ("error: central square identity not confirmed in the order-120 "
                   "group within budget (unknown)\n")
    assert run(capsys, "construct", "sk3", "< x | >", "--max", "300")[0] == 0


def test_check_artin_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "artin", "< x1 | x1^-1 x1 >")
    assert code == 0 and out == "Yes\n"
    code, out, _ = run(capsys, "check", "artin", "< x1, x2 | x1^-1 x2, x2^-1 x1 >")
    assert code == 1 and out == "No\n"


def test_check_wirtinger_verbose_evidence(capsys):
    code, out, _ = run(
        capsys, "check", "wirtinger", "< x1, x2 | x1^-1 x2 >", "--verbose"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Yes"
    assert json.loads(lines[1])["patterns"] == [[1, 2, "1"]]


def test_check_twoknot_unknown_exit(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "twoknot",
        "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, x2^-1 x1 x2 x1 x2^-1 x1^-1 >",
    )
    assert code == 2
    assert out == "Unknown\n"


def test_check_twoknot_refuses_companions_that_are_not_a_permutation(capsys):
    # both companion words are conjugate to x2
    code, out, _ = run(capsys, "check", "twoknot", "< x1, x2 | x1^-1 x2, 1 >", "--verbose")
    assert code == 1
    evidence = {"mu": [2, 2], "reason": "companion map is not a permutation"}
    assert out.splitlines() == ["No", json.dumps(evidence)]


def test_check_twoknot_says_no_with_no_generators(capsys):
    code, out, _ = run(capsys, "check", "twoknot", "< | >", "--verbose")
    assert code == 1
    assert out.splitlines() == ["No", json.dumps({"reason": "no generators"})]


def test_check_kervaire_json(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "kervaire",
        TREFOIL,
        "--candidates",
        "y",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h1_infinite_cyclic"] == "yes"
    assert payload["candidates"][0]["normal_closure_is_all"] == "yes"
    assert payload["h2_trivial"] == "certified"
    assert payload["verdict"] == "yes"


def test_verify_identity_exits(capsys):
    code, out, _ = run(
        capsys,
        "verify-identity",
        "< a | a^2 >",
        "--pi",
        '[["a", 0, 1], ["1", 0, -1]]',
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        capsys, "verify-identity", "< a | a^2 >", "--pi", '[["1", 0, 1]]'
    )
    assert code == 1 and out == "false\n"


def test_verify_identity_rejects_bad_json(capsys):
    code, _, err = run(capsys, "verify-identity", "< a | a >", "--pi", "nonsense")
    assert code == 3
    assert "JSON" in err


def test_verify_identity_rejects_malformed_entries(capsys):
    bad = [
        '[["x", "a", 1]]',
        '[["x", 1, 1]]',
        '[["x", -1, 1]]',
        '[["x", 0, 2]]',
        '[["x", 0, true]]',
        '[[3, 0, 1]]',
        '{}',
        '[[1, 2]]',
    ]
    for pi in bad:
        code, _, err = run(capsys, "verify-identity", "< x | x >", "--pi", pi)
        assert code == 3, pi
        assert err.startswith("error:") and "Traceback" not in err, pi


def test_huge_exponent_is_a_usage_error(capsys):
    code, out, err = run(capsys, "h1", "< x | x^1000000000 >")
    assert code == 3 and out == ""
    assert "exceeds the limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["h1", "< x | " + ", ".join(["x^1000000"] * 300) + " >"],
        ["fold", "--alphabet", "1", "--words", ", ".join(["x1^1000000"] * 300)],
        ["coset-enum", "< x | >", "--subgroup", ", ".join(["x^1000000"] * 300)],
        ["check", "kervaire", "< x | >", "--candidates", ", ".join(["x^1000000"] * 300)],
        ["verify-identity", "< x | x >", "--pi", json.dumps([["x^1000000", 0, 1]] * 300)],
    ],
    ids=["relators", "words", "subgroup", "candidates", "conjugators"],
)
def test_many_long_words_are_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: words of 5000000 letters in all exceed the limit of 4000000\n"


LONG_NAME = "y" * 10_000
LONG_NUMBER = "2" * 10_000


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["h1", "< x | x > " + LONG_NAME], "trailing input"),
        (["fold", "--alphabet", "1", "--words", "x1 ) " + LONG_NAME], "trailing input after word"),
        (["h1", "< x | " + LONG_NAME + " >"], "unknown generator"),
        (["h1", "< " + LONG_NUMBER + " | >"], "bad generator name"),
        (["h1", "< x | " + LONG_NUMBER + " >"], "unexpected token"),
        (["h1", "< x | x^" + LONG_NAME + " >"], "bad exponent"),
        (["h1", "< x | x^" + LONG_NUMBER + " >"], "bad exponent"),
        (["h1", LONG_NAME], "expected '<', got"),
        (["verify-identity", "< a | a^2 >", "--pi", json.dumps([["a", LONG_NAME, 1]])],
         "relator index"),
        (["verify-identity", "< a | a^2 >", "--pi", json.dumps([["a", 0, LONG_NAME]])],
         "bad sign"),
        (["verify-identity", "< a | a^2 >", "--pi", json.dumps([[[LONG_NAME], 0, 1]])],
         "conjugator must be a word string"),
    ],
)
def test_error_messages_quote_long_tokens_in_part(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: " + fragment) and len(err) < 200, err[:300]


# Values int() refuses: a number with a trailing letter, a long name, and a
# 10,000-digit number wherever the int string-conversion digit limit is on.
BAD_INTS = {"number_letter": LONG_NUMBER + "x", "name": LONG_NAME}
if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_NUMBER):
    BAD_INTS["digits"] = LONG_NUMBER


@pytest.mark.parametrize("value", list(BAD_INTS.values()), ids=list(BAD_INTS))
@pytest.mark.parametrize(
    "argv",
    [
        ["fold", "--alphabet", None, "--words", "x1"],
        ["coset-enum", "< x | x >", "--max", None],
        ["construct", "prop1", "< x | x >", "--max", None],
        ["check", "twoknot", "< x | x >", "--h", None],
        ["check", "twoknot", "< x | x >", "--budget", None],
        ["enumerate", "--budget", None],
        ["tietze", "< x | x >", "--max-relator-len", None],
    ],
    ids=["fold_alphabet", "coset_enum_max", "construct_max", "check_h", "check_budget",
         "enumerate_budget", "tietze_max_relator_len"],
)
def test_int_options_quote_a_refused_value_in_part(capsys, argv, value):
    option = argv[argv.index(None) - 1]
    code, out, err = run(capsys, *[value if a is None else a for a in argv])
    assert code == 3 and out == ""
    assert ("error: argument %s: invalid int value: " % option) in err
    assert len(err) < 200, err[:300]
    # a short value keeps argparse's own message
    code, out, err = run(capsys, *["abc" if a is None else a for a in argv])
    assert code == 3 and out == ""
    assert err.endswith("error: argument %s: invalid int value: 'abc'\n" % option), err


def test_negative_tietze_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "tietze", "< x | x >", "--max-relator-len", "-1")
    assert code == 3 and out == ""
    assert "max_relator_len must be an int, 0 or more, got -1" in err
    assert run(capsys, "tietze", "< x | x >", "--max-relator-len", "0")[0] == 0


def test_negative_check_budget_is_a_usage_error(capsys):
    trefoil2 = "< x1, x2 | x2 x1 x2 x1^-1 x2^-1 x1^-1, x2^-1 x1 x2 x1 x2^-1 x1^-1 >"
    code, out, err = run(capsys, "check", "twoknot", trefoil2, "--budget", "-7")
    assert code == 3 and out == ""
    assert "budget must be an int, 0 or more, got -7" in err
    assert run(capsys, "check", "twoknot", trefoil2, "--budget", "0")[0] == 2
    for extra in ((), ("--candidates", "x")):
        code, out, err = run(capsys, "check", "kervaire", "< x | >", "--budget", "-3", *extra)
        assert code == 3 and out == "" and "coset budget must be an int, 1 or more, got -3" in err


def test_negative_enumerate_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--budget", "-5")
    assert code == 3 and out == ""
    assert "budget must be an int, 0 or more, got -5" in err
    assert run(capsys, "enumerate", "--budget", "0") == (0, "", "")


def test_negative_fold_alphabet_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fold", "--alphabet", "-3", "--words", "")
    assert code == 3 and out == ""
    assert "alphabet size must be an int, 0 or more, got -3" in err
    assert run(capsys, "fold", "--alphabet", "0", "--words", "")[:2] == (0, "rank: 0\nbasis: yes\n")


def test_negative_construct_max_is_a_usage_error(capsys):
    for kind in ("prop1", "k3embed", "k3k2", "sk3", "ms"):
        code, out, err = run(capsys, "construct", kind, "< x | >", "--max", "-4")
        assert code == 3 and out == "" and "coset budget must be an int, 1 or more, got -4" in err
    code, out, err = run(capsys, "construct", "weight", "< x | >", "--w", "x", "--max", "0")
    assert code == 3 and out == "" and "coset budget must be an int, 1 or more, got 0" in err


def test_deep_nesting_parses_or_exits_3(tmp_path, capsys):
    def h1_of(text):
        path = tmp_path / "deep.txt"
        path.write_text(text)
        return run(capsys, "h1", "--input", str(path))

    depth = 5000
    assert h1_of("< x | " + "(" * depth + "x" + ")" * depth + " >") == (0, "0\n", "")
    assert h1_of("< x, y | " + "(" * 100_000 + "x y^-1" + ")^1" * 100_000 + " >")[:2] == (0, "Z\n")
    code, out, err = h1_of("< x | " + "(" * depth + "x" + ")" * (depth - 1) + " >")
    assert code == 3 and out == "" and "expected ')'" in err
    code, out, err = h1_of("< x | " + "(x " * depth + " >")
    assert code == 3 and out == "" and "expected ')'" in err
    code, out, err = h1_of("< x | " + "(" * 20 + "x^2" + ")^2" * 20 + " >")
    assert code == 3 and "exceeds the limit" in err


def test_deeply_nested_json_is_a_usage_error(capsys):
    code, out, err = run(capsys, "snf", "[" * 100_000 + "]" * 100_000)
    assert code == 3 and out == "" and err.startswith("error: matrix must be a JSON array: ")
    code, out, err = run(capsys, "verify-identity", "< x | x >", "--pi", "[" * 100_000)
    assert code == 3 and out == "" and err.startswith("error: identity sequence must be a JSON array: ")


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--budget", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "< x | >\tx"
    for line in lines:
        text, witness = line.split("\t")
        p = parse(text)
        p.word(witness)  # witness must spell over the emitted generators


def test_tietze_lists_moves(capsys):
    code, out, _ = run(capsys, "tietze", "< x | x >")
    assert code == 0
    kinds = {line.split("\t")[0] for line in out.splitlines()}
    assert "remove-generator" in kinds
    assert "add-relator" in kinds


def test_usage_errors_exit_three(capsys):
    assert run(capsys, "nonsense")[0] == 3
    assert run(capsys, "h1")[0] == 3  # no presentation given
    code, _, err = run(capsys, "h1", "< x | broken syntax")
    assert code == 3
    assert "error:" in err


def test_each_budget_flag_defaults_to_the_library_budget(capsys):
    code, out, _ = run(capsys, "coset-enum", "< x | >")
    assert (code, out) == (2, "Exhausted(%d)\n" % DEFAULT_MAX_COSETS)
    parser = build_parser()
    assert parser.parse_args(["construct", "prop1"]).max == DEFAULT_MAX_COSETS
    args = parser.parse_args(["tietze", "< x | >"])
    assert args.max_relator_len == TietzeBudget().max_relator_len == 12


def test_out_of_memory_is_exit_2_not_a_traceback(capsys, monkeypatch):
    def exhausted(p):
        raise MemoryError

    monkeypatch.setattr("knotpres.cli.h1", exhausted)
    code, out, err = run(capsys, "h1", TREFOIL)
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_input_file_and_repeatability(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(A5, encoding="utf-8")
    code, first, _ = run(capsys, "coset-enum", "--input", str(path))
    assert code == 0
    _, second, _ = run(capsys, "coset-enum", "--input", str(path))
    assert first == second == "Finite(60)\n"
    assert run(capsys, "h1", "--input", str(tmp_path / "missing.txt"))[0] == 3


def test_inline_text_and_input_file_together_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(A5, encoding="utf-8")
    code, out, err = run(capsys, "h1", TREFOIL, "--input", str(path))
    assert code == 3 and out == ""
    assert err.endswith("\nerror: give the presentation inline or via --input, not both\n")


def test_input_and_pi_dash_read_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TREFOIL))
    assert run(capsys, "h1", "--input", "-") == (0, "Z\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO('[["a", 0, 1], ["1", 0, -1]]'))
    assert run(capsys, "verify-identity", "< a | a^2 >", "--pi", "-") == (0, "true\n", "")


def test_stdin_pipe_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "knotpres.cli", "h1", "--input", "-"],
        input=TREFOIL,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Z\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI call pays for the package's imports first; dataclasses pulls
    # in inspect, ast, dis and tokenize, over half of a cached import, and
    # typing is half of what is left.  -S keeps a site that loads typing
    # itself from hiding an import of it.
    code = (
        "import sys; sys.path.insert(0, %r); import knotpres, knotpres.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
        % str(SRC)
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_annotation_resolves():
    # Annotations are never evaluated at run time, so a name that is not
    # imported, such as a stale Optional, would otherwise go unnoticed.
    import typing

    modules = [importlib.import_module("knotpres." + info.name)
               for info in pkgutil.iter_modules(knotpres.__path__) if not info.name.endswith("speedup")]
    checked = 0
    for module in [knotpres] + modules:
        typing.get_type_hints(module)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if isinstance(obj, type):
                typing.get_type_hints(obj)
                members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(obj).values()]
            for f in members:
                if inspect.isfunction(f):
                    typing.get_type_hints(f)
                    checked += 1
    assert checked > 100


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    path = tmp_path / "y.txt"
    path.write_text("< a | >", encoding="utf-8")
    code, with_file, _ = run(
        capsys, "construct", "homology", "< x | x >", "< c | >",
        "--input", str(path), "--w", "c",
    )
    assert code == 0
    # a leaked --input list would make this four inputs and a usage error
    code, inline, _ = run(
        capsys, "construct", "homology", "< x | x >", "< c | >", "< a | >",
        "--w", "c",
    )
    assert code == 0
    assert inline == with_file

    code, out, err = run(capsys, "construct", "weight", "< u1, u2 | >")
    assert code == 3 and out == "" and "--w" in err
    code, out, err = run(capsys, "h1", "< x | x^2 >")
    assert (code, out, err) == (0, "Z/2\n", "")

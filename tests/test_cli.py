import hashlib
import json
import os
import re
import subprocess
import sys
from io import StringIO
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from lensprod.algebra import GF, INFINITY, QQ, TupleSpec, ZZ
from lensprod.cli import COMMANDS, parse, run

from _grid import grid_specs


def go(args):
    out, err = StringIO(), StringIO()
    code = run(args, out, err)
    return code, out.getvalue(), err.getvalue()


def test_help():
    code, out, err = go(["--help"])
    assert code == 0
    assert "usage:" in out and "report" in out
    assert go(["-h"])[0] == 0


def test_parse_examples():
    q = parse(["--n", "1,1", "--t", "inf", "ring", "--coeff", "Q"])
    assert q.command == "ring"
    assert q.spec.n == (1, 1) and q.spec.t == INFINITY
    assert q.dom == QQ

    q = parse(["--n", "1", "--t", "3", "oracle"])
    assert q.command == "oracle" and q.dom == ZZ


def test_parse_rejects_unsorted():
    code, out, err = go(["--n", "2,1", "--t", "4", "ring"])
    assert code == 2
    assert "nondecreasing" in err


def test_parse_sort_flag():
    q = parse(["--n", "2,1", "--t", "4", "ring", "--sort"])
    assert q.spec.n == (1, 2)


def test_parse_errors_exit_2():
    for args in (
        ["ring"],  # no --n/--t
        ["--n", "1", "--t", "4"],  # no command
        ["--n", "1", "--t", "4", "ring", "frobnicate"],
        ["--n", "x", "--t", "4", "ring"],
        ["--n", "1", "--t", "0", "ring"],
        ["--n", "1", "--t", "4", "ring", "--coeff", "F:4"],
        ["--n", "1", "--t"],
    ):
        code, out, err = go(args)
        assert code == 2, args


def test_repeated_valued_flag_exits_2():
    for flag, args in (
        ("--t", ["--n", "1", "--t", "2", "--t", "3", "ring"]),
        ("--n", ["--n", "1", "ring", "--n", "2", "--t", "2"]),
        ("--coeff", ["--n", "1", "--t", "2", "ring", "--coeff", "Q", "--coeff", "Q"]),
    ):
        code, out, err = go(args)
        assert (code, out, err) == (2, "", f"error: {flag} given twice\n"), args
    # a repeated boolean flag changes nothing and stays accepted
    assert go(["--n", "1", "--t", "2", "ring", "--json", "--json"])[0] == 0


def test_usage_errors_name_the_flag():
    for args, message in (
        (["--n", "1", "--t", "3", "ring", "--coeff", "G"], "--coeff must be Z, Q, F2 or F:<p>, got 'G'"),
        (["--n", "1", "ring"], "--n needs --t"),
        (["tseries"], "tseries needs --t"),
        (["--n", "1", "--t", "3", "invariants", "--tc-override", "2"], "--tc-override expects lo,hi"),
        (["--t", "3", "tseries", "--law", "x"], "--law must be additive or multiplicative"),
        (["--n", "1", "--t", "2", "wedge", "--k", "-1"], "--k must be non-negative"),
        (["--n", "1", "--t", "3", "oracle", "--cap", "0"], "--cap must be positive"),
    ):
        assert go(args) == (2, "", f"error: {message}\n"), args


def test_unsupported_combinations_exit_3():
    for args in (
        ["--n", "1", "--t", "inf", "steenrod", "--coeff", "Q"],
        ["--n", "1", "--t", "inf", "oracle"],
        ["--n", "1", "--t", "2", "report", "--coeff", "Z"],
        ["--t", "inf", "tseries"],
        ["--n", "1", "--t", "2", "wedge", "--coeff", "Z"],
        ["--n", "2,2,2", "--t", "6", "oracle", "--cap", "100"],
    ):
        code, out, err = go(args)
        assert code == 3, (args, err)


def test_oracle_entry_cap_exits_3(monkeypatch):
    from lensprod import oracle

    def unbuilt(n, t):
        raise AssertionError("sphere complexes built")

    monkeypatch.setattr(oracle, "sphere_complex", unbuilt)
    code, out, err = go(["--n", "1,1", "--t", "3125", "oracle", "--json"])
    assert code == 3 and out == ""
    assert err.startswith("unsupported: quotient boundaries have 78225000 entries")
    code, out, err = go(["--n", "1,1", "--t", "3125", "report", "--json"])
    assert code == 0 and json.loads(out)["oracle"] == {"checked": False, "match": True}


def test_a_non_diagonal_quotient_exits_4(monkeypatch):
    # a second entry in a column of d_5 of (1,1,1;3)'s quotient: d_4 and d_6
    # vanish, so it is still a chain complex, and only the read of the
    # factors off the diagonal refuses it
    from lensprod import oracle

    quotient = oracle._quotient

    def non_diagonal(fold, t):
        cols = quotient(fold, t)
        cols[5][0][1] = 3
        return cols

    monkeypatch.setattr(oracle, "_quotient", non_diagonal)
    oracle._cached_factors.cache_clear()
    code, out, err = go(["--n", "1,1,1", "--t", "3", "oracle", "--json"])
    assert code == 4 and out == ""
    assert err == "internal error: the boundary out of degree 5 of CP_(1, 1, 1)(3) is not diagonal\n"


def test_domain_rejections_exit_2():
    for args in (
        ["--n", "1,1", "--t", "inf", "invariants", "--gd", "9"],
        ["--n", "1,1", "--t", "2", "invariants", "--tc-override", "5,2"],
        ["--n", "2", "--t", "2", "invariants", "--span-base", "99"],
        ["--n", "1,1", "--t", "2", "invariants", "--span-base", "-3"],
        ["--n", "1,1", "--t", "2", "invariants", "--tc-override", "-1,3"],
    ):
        code, out, err = go(args)
        assert code == 2, (args, err)


def test_large_prime_t_and_coefficients():
    big = str(2**61 - 1)
    code, out, err = go(["--n", "1", "--t", big, "ring", "--json"])
    assert code == 0, err
    assert json.loads(out)["input"]["coeff"] == f"F{big}"
    assert go(["--n", "1", "--t", "3", "ring", "--coeff", f"F:{big}"])[0] == 0
    # primality above the documented bound cannot be decided: one error line
    for args in (
        ["--n", "1", "--t", str(2**89 - 1), "ring"],
        ["--n", "1", "--t", "3", "ring", "--coeff", f"F:{2**89 - 1}"],
    ):
        code, out, err = go(args)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot decide") and err.count("\n") == 1


def test_default_coefficients():
    assert parse(["--n", "1", "--t", "inf", "ring"]).dom == QQ
    assert parse(["--n", "1", "--t", "4", "ring"]).dom == GF(2)
    assert parse(["--n", "1", "--t", "9", "ring"]).dom == GF(3)
    assert parse(["--n", "1", "--t", "1", "ring"]).dom == QQ
    assert parse(["--n", "1", "--t", "9", "oracle"]).dom == ZZ
    assert parse(["--n", "1", "--t", "9", "steenrod"]).dom == GF(2)


def test_ring_command_json():
    code, out, err = go(["--n", "1,1", "--t", "inf", "ring", "--coeff", "Q", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"]["poincare"] == [1, 0, 1, 1, 0, 1]
    assert doc["dim"] == 5


def test_ring_command_integral_groups():
    code, out, err = go(["--n", "1", "--t", "3", "ring", "--coeff", "Z", "--json"])
    doc = json.loads(out)
    assert doc["ring"]["groups"] == [[0, 1, []], [2, 0, [3]], [3, 1, []]]


def test_oracle_command():
    code, out, err = go(["--n", "1", "--t", "3", "oracle", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] and doc["match"]


def test_tseries_command():
    code, out, err = go(
        ["--t", "3", "tseries", "--law", "multiplicative", "--precision", "3", "--json"]
    )
    doc = json.loads(out)
    assert doc["series"] == [0, 3, 3, 1]
    code, out, err = go(["--t", "7", "tseries", "--law", "additive", "--json"])
    doc = json.loads(out)
    assert doc["series"][:3] == [0, 7, 0]


def test_report_examples():
    code, out, err = go(["--n", "1,1", "--t", "inf", "report", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["chi"] == 0
    assert doc["invariants"]["spin"] is True
    assert doc["invariants"]["stably_parallelizable"] == "true"
    assert doc["oracle"] == {"checked": False, "match": True}

    code, out, err = go(["--n", "2", "--t", "inf", "report", "--json"])
    doc = json.loads(out)
    assert doc["invariants"]["chi"] == 3
    assert doc["invariants"]["vector_field"] is False
    assert doc["invariants"]["chi_star"] == "3/2"


def test_report_runs_oracle_for_finite_t():
    code, out, err = go(["--n", "1,1", "--t", "2", "report", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == {"checked": True, "match": True}
    assert "steenrod" in doc  # F2 default for even t


def test_report_deterministic_and_schema():
    required = ("input", "dim", "ring", "invariants", "splittings", "oracle")
    for spec in grid_specs(ts=(2, 3)):
        args = [
            "--n",
            ",".join(str(v) for v in spec.n),
            "--t",
            str(spec.t),
            "report",
            "--json",
        ]
        code1, out1, _ = go(args)
        code2, out2, _ = go(args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        doc = json.loads(out1)
        for key in required:
            assert key in doc, (spec, key)
        assert doc["input"]["n"] == list(spec.n)
        inv = doc["invariants"]
        for key in (
            "chi",
            "chi_star",
            "spin",
            "orientable",
            "vector_field",
            "stably_parallelizable",
            "parallelizable",
            "cat",
            "tc",
            "span",
            "imm",
        ):
            assert key in inv, (spec, key)
        assert inv["cat"][0] <= inv["cat"][1]
        assert inv["tc"][0] <= inv["tc"][1]
        for tri in (inv["stably_parallelizable"], inv["parallelizable"]):
            assert tri in ("true", "false") or tri.startswith("unknown:")


def test_json_round_trip():
    code, out, err = go(["--n", "1,2", "--t", "4", "report", "--json"])
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_report_numbers_reproduce_module_calls():
    from lensprod.algebra import TupleSpec
    from lensprod.cohomology import build_ring, poincare_polynomial
    from lensprod.invariants import cat_bounds, euler_char, tc_bounds

    for n, t in (((1, 1), 2), ((1, 2), 3)):
        spec = TupleSpec(n, t)
        args = ["--n", ",".join(map(str, n)), "--t", str(t), "report", "--json"]
        doc = json.loads(go(args)[1])
        dom = GF(2) if t % 2 == 0 else GF(3)
        assert doc["dim"] == spec.dim
        assert doc["ring"]["poincare"] == list(
            poincare_polynomial(build_ring(spec, dom)).coeffs
        )
        assert doc["invariants"]["chi"] == euler_char(spec)
        assert doc["invariants"]["cat"] == list(cat_bounds(spec))
        assert doc["invariants"]["tc"] == list(tc_bounds(spec))


def test_flags_allowed_on_either_side_of_command():
    a = go(["--n", "1,1", "--t", "2", "report", "--json"])
    b = go(["report", "--n", "1,1", "--t", "2", "--json"])
    assert a == b


def test_console_entry_point():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "lensprod", "--n", "1", "--t", "3", "ring", "--json"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=root,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["input"]["t"] == 3


def test_import_needs_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out, so only lensprod's are seen
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, lensprod, lensprod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=root,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_crossing_tc_override_exits_2():
    # the override's upper bound falls below the zero-divisor lower bound
    code, out, err = go(["--n", "1,1", "--t", "2", "invariants", "--tc-override", "0,0"])
    assert code == 2
    assert err.startswith("error:") and "override" in err
    assert "Traceback" not in err and out == ""


def test_failed_cross_check_exits_4(monkeypatch):
    from lensprod import invariants

    # no mod-2 semi-characteristic equals 2, so the Kervaire cross-check fails
    monkeypatch.setattr(invariants, "_kervaire_case_value", lambda spec: 2)
    code, out, err = go(["--n", "1", "--t", "2", "invariants", "--json"])
    assert code == 4
    assert err.startswith("internal error:") and "Kervaire" in err
    assert err.count("\n") == 1 and "Traceback" not in err and out == ""


def test_oracle_mismatch_explained_on_stderr(monkeypatch):
    from lensprod import oracle

    code, good_out, err = go(["--n", "1", "--t", "3", "oracle", "--json"])
    assert code == 0 and err == ""
    real = oracle.compare_with_theory(TupleSpec((1,), 3), ZZ)
    rows = list(real.degrees)
    rows[2] = (2, (0, (3,)), (0, ()), False)
    rows[3] = (3, (1, ()), (2, (5,)), False)
    report = oracle.ComparisonReport(real.spec, real.dom, False, tuple(rows))
    monkeypatch.setattr(oracle, "compare_with_theory", lambda spec, dom, cap: report)
    code, out, err = go(["--n", "1", "--t", "3", "oracle", "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["match"] is False and [row["match"] for row in doc["degrees"]] == [True, True, False, False]
    assert doc["degrees"][3]["oracle"] == [2, [5]]
    assert err.splitlines() == [
        str(report),
        "degree 2: theory [0, [3]] oracle [0, []]",
        "degree 3: theory [1, []] oracle [2, [5]]",
    ]
    assert str(report).endswith("MISMATCH at degrees 2, 3")


def test_report_mismatch_explained_on_stderr(monkeypatch):
    from lensprod import oracle

    argv = ["--n", "1", "--t", "3", "report", "--json"]
    code, good_out, err = go(argv)
    assert code == 0 and err == ""
    real = oracle.compare_with_theory(TupleSpec((1,), 3), ZZ)
    rows = list(real.degrees)
    rows[2] = (2, (0, (3,)), (0, ()), False)
    report = oracle.ComparisonReport(real.spec, real.dom, False, tuple(rows))
    monkeypatch.setattr(oracle, "compare_with_theory", lambda spec, dom, cap: report)
    code, out, err = go(argv)
    assert code == 1
    expected = json.loads(good_out)
    expected["oracle"]["match"] = False
    assert json.loads(out) == expected
    assert err.splitlines() == [str(report), "degree 2: theory [0, [3]] oracle [0, []]"]


def test_closed_stdout_exits_quietly():
    # the reader end of the pipe is closed before the CLI writes its output
    root = Path(__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lensprod", "--n", "3", "--t", "200000", "ring", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
            cwd=root,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == ""


def test_benchmark_corpus_replays_byte_identical():
    # every query of perfbench/corpus.json, in-process: the recorded exit code
    # and the sha256 of stdout, the digest the benchmark gates on
    root = Path(__file__).resolve().parents[1]
    corpus = json.loads((root / "perfbench" / "corpus.json").read_text())
    for q in corpus["queries"]:
        code, out, err = go(q["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (q["exit"], q["sha256"]), (q["argv"], err)


# the 18 corpus queries without --json: exit code and sha256 of the text
# rendering, recorded before the handlers were merged into one table
TEXT_DIGESTS = (
    ("--n 1,1 --t 2 report", 0, "eb10d62485280567c1c8a993e2fb69ff0a059f3e6ac854487226422d27b10e40"),
    ("--n 1,2,2 --t inf report", 0, "73ba739a7ebc7a9d837703b88f656c85f24bffa2a42f6d809bdb5d9ace714eaf"),
    ("--n 1,1,1,1,1,1 --t inf report", 0, "a5e985a9213e33dac67d2fc29d32448296a09b566d4733b3eb0a4ed139d218d0"),
    ("--n 2,2,2,2,2 --t 2 report", 0, "b6f683c84a9aef603c78bff06bb38e438ea47f8e8e8c4b0ad2e9449009107166"),
    ("--n 1,1,2 --t 6 report --coeff F:3", 0, "967cba5be49d1a8e62459b998382758d1c933966b69829eeed9c8ebf5c067cbc"),
    ("--n 1,1,1,1,1,1 --t 2 invariants", 0, "fa341f22cf50c7d400fcc6d1b50a0b7eb3a6537c3ab09baaf375177e9d97a40d"),
    ("--n 1,1,1,1,1,1,1 --t inf invariants", 0, "fd9ad274971a6797ccca26aea173d8b1db25dd5a014c98e276a79d4b3703f0e2"),
    ("--n 3,3,3,3 --t 4 steenrod", 0, "6b29e5a8bb840a8d4b96fd80318f4aadd333e761b9d1fb2afd1461b136186acb"),
    ("--n 2,3,3 --t 2 steenrod", 0, "7880692e2304518d07597bdd5e68aa9d4da3bd706f086b5218b48fd5e21351f3"),
    ("--t 3000 tseries --precision 8", 0, "53ad0ef06673cedc8350b4062f1dc3e4dd766b6aff243a6d1e82b5b0e3525784"),
    ("--t 1000 tseries --law additive --precision 8", 0, "aec12492bf861076fd57c6a7f5efc7466d376182d68fbb34ea00917346f84ea9"),
    ("--n 1,1,2 --t 5 split", 0, "f5023782b3beb1bccf429180e97f5a9a577ad45b6148051d10c9d5bc6a559b1e"),
    ("--n 1,1 --t inf wedge --k 1 --coeff Q", 0, "55a77fad643e92ed224eba94160472fa473a92b6287c7c4b94590ee29d119254"),
    ("--n 1,2 --t 2 wedge --k 1 --coeff F2", 0, "0eba401de333f6439e3b744f605b6ba93955a341508f6c490809dd6989f5c9dc"),
    ("--n 1,1 --t 3 ring --coeff F:3", 0, "5321a947186502c6ca620f32d718d32cfc0f004ff918fe964d53b9eb414e516e"),
    ("--n 1,2 --t 4 ring", 0, "b34e594dadb898f5712f31cc563808ceceafab775281ba636b794873bcb55f14"),
    ("--n 1,1 --t 3 oracle --coeff F2", 0, "7a2aafe38b900e3d7383c375bb071c2f168b6ad67eb66055c1b95232c73baddf"),
    ("--n 1 --t 0 ring", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)


def test_text_output_of_the_corpus_is_pinned():
    for line, exit_code, sha256 in TEXT_DIGESTS:
        code, out, err = go(line.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha256), (line, err)


# sha256 of `ring --coeff Z --json`, recorded before graded groups stored
# their torsion as elementary divisors
INTEGRAL_RING_DIGESTS = (
    ("1,1,2", "6", "89082f49c74634c915969c4d92b898bbf136c2e7f2694bbc0e4483c883716d29"),
    ("2,2,2", "4", "5a52ad42be19e711e6ccc9a1bac033ba4c2a1dee17ea995ef709886c2d2503b1"),
    (",".join(["1"] * 14), "6", "4d12fd8e22ec06c7fb25560f2e51ebcf2ce48fbe374d8a58c4deb9437b7c0043"),
)


def test_integral_ring_output_is_pinned():
    for n, t, sha256 in INTEGRAL_RING_DIGESTS:
        code, out, err = go(["--n", n, "--t", t, "ring", "--coeff", "Z", "--json"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha256), (n, t, err)


def test_only_wedge_verifies_the_wedge(monkeypatch):
    from lensprod import splittings

    calls = []
    real = splittings.verify_wedge

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(splittings, "verify_wedge", counted)
    assert go(["--n", "1,2", "--t", "2", "report", "--json"])[0] == 0
    assert calls == []
    code, out, err = go(["--n", "1,2", "--t", "2", "wedge", "--k", "1", "--json"])
    assert code == 0 and json.loads(out)["wedge"]["verified"] is True
    assert len(calls) == 1


def test_a_failed_wedge_check_exits_4_and_still_prints(monkeypatch):
    # a failed cross-check is a bug: exit 4 and one `internal error:` line,
    # with the document, "verified": false, on stdout as before
    from lensprod import splittings

    real = splittings.verify_wedge

    def failed(*args):
        return real(*args)._replace(ok=False, mismatch_degree=3)

    monkeypatch.setattr(splittings, "verify_wedge", failed)
    code, out, err = go(["--n", "1,1", "--t", "2", "wedge", "--k", "1", "--coeff", "F2", "--json"])
    assert code == 4 and json.loads(out)["wedge"]["verified"] is False
    assert err.splitlines() == ["internal error: wedge check fails at degree 3 of CP_(1, 1)(2)"]


# the exit codes in the README's table
README_EXIT_CODES = {
    int(code)
    for code in re.findall(
        r"^\| `(\d+)` \|", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.M
    )
}

# (good values, bad values) of each valued flag but --n and --t
_FLAG_VALUES = {
    "--coeff": (("Z", "Q", "F2", "F:3"), ("F:4", "F:", "G")),
    "--k": (("0", "1", "2"), ("-1", "x")),
    "--gd": (("0", "1", "5"), ("-3", "x")),
    "--span-base": (("0", "2", "9"), ("-1", "x")),
    "--tc-override": (("0,0", "1,2", "3,1", "-1,4"), ("2", "a,b")),
    "--precision": (("0", "3", "8"), ("-1", "x")),
    "--law": (("additive", "multiplicative"), ("x",)),
    "--unit": (("0", "1", "2"), ("x",)),
    "--cap": (("1", "100", "4000"), ("0", "x")),
}


def _rarely(draw) -> bool:
    # hypothesis leans to the ends of a range, so the rare case is inside it
    return draw(st.integers(0, 6)) == 3


@st.composite
def _argv(draw):
    """A command line of the README's commands and flags with n_i <= 3 and
    r <= 3, mostly valid: now and then a bad value, a dropped word, a stray
    token or a missing last value, in any order."""
    n = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    good_n = (",".join(map(str, sorted(n))), ",".join(map(str, n)))
    words = [
        [draw(st.sampled_from(COMMANDS))],
        ["--n", draw(st.sampled_from(("", "a", "1,,2", "-1") if _rarely(draw) else good_n))],
        ["--t", draw(st.sampled_from(("0", "-2", "x") if _rarely(draw) else ("1", "2", "3", "4", "inf")))],
    ]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=2)):
        good, bad = _FLAG_VALUES[flag]
        words.append([flag, draw(st.sampled_from(bad if _rarely(draw) else good))])
    for flag in ("--json", "--sort"):
        if draw(st.booleans()):
            words.append([flag])
    if _rarely(draw):
        words.append([draw(st.sampled_from(COMMANDS + ("--bogus", "3", "--help")))])
    if _rarely(draw):
        del words[draw(st.integers(0, len(words) - 1))]
    argv = [a for w in draw(st.permutations(words)) for a in w]
    return argv[:-1] if _rarely(draw) else argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_run_never_raises_and_exits_with_a_documented_code(argv):
    assert go(argv)[0] in README_EXIT_CODES

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minorcert
from minorcert import cli, identity, numaccretive
from minorcert.detkit import COFACTOR_CAP
from minorcert.identity import DEFAULT_SYMBOLIC_CAP, SPECIALIZATION_CAP
from minorcert.matrix import Matrix, identity as identity_matrix, johnson_family
from minorcert.report import CertificateReport
from minorcert.ring import ExactDivisionError


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out.read_bytes()


def test_verify_johnson_symbolic_exit_zero(tmp_path):
    rc, raw = run_to_file(tmp_path, "j.json", ["verify", "johnson", "--n", "4"])
    assert rc == 0
    docs = json.loads(raw)
    assert len(docs) == 1
    assert docs[0]["claim"] == "johnson_symbolic_n4"
    assert docs[0]["status"] == "verified"
    assert docs[0]["residual"] == "0"
    assert docs[0]["seed"] == cli.DEFAULT_SEED


def test_verify_johnson_numeric(tmp_path):
    rc, raw = run_to_file(
        tmp_path,
        "jn.json",
        ["verify", "johnson", "--mode", "numeric", "--n", "10", "--trials", "10",
         "--seed", "5"],
    )
    assert rc == 0
    docs = json.loads(raw)
    assert len(docs) == 10
    assert all(d["status"] == "verified" for d in docs)
    assert all(d["seed"] == 5 and d["tolerance"] == 1e-9 for d in docs)


def test_verify_lemmas(tmp_path):
    rc, raw = run_to_file(
        tmp_path, "l.json",
        ["verify", "lemmas", "--n", "5", "--trials", "5"],
    )
    assert rc == 0
    docs = json.loads(raw)
    claims = [d["claim"] for d in docs]
    assert claims == sorted(claims)
    assert "reduced_case_n4" in claims and "skew_facts_m3" in claims


@pytest.mark.parametrize("n", [DEFAULT_SYMBOLIC_CAP + 1])
def test_verify_lemmas_order_out_of_range_is_a_usage_error(n):
    # the lemmas cap is the CLI's own bound, so argparse rejects it
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "lemmas", "--n", str(n)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "johnson", "--n", "1"], id="johnson-symbolic-n1"),
    pytest.param(["verify", "johnson", "--mode", "numeric", "--n", "1"],
                 id="johnson-numeric-n1"),
    pytest.param(["verify", "johnson", "--n", str(DEFAULT_SYMBOLIC_CAP + 1)],
                 id="johnson-symbolic-over-max-n"),
    pytest.param(["verify", "lemmas", "--n", "2"], id="lemmas-n2"),
    pytest.param(["verify", "bt", "--dim", "1"], id="bt-dim1"),
    pytest.param(["verify", "accretive", "--dim", "1"], id="accretive-dim1"),
    pytest.param(["verify", "specialization", "--m", "1"], id="specialization-m1"),
    pytest.param(["verify", "specialization", "--m", str(SPECIALIZATION_CAP + 1)],
                 id="specialization-over-cap"),
    pytest.param(["search", "complex", "--dim", "1"], id="search-dim1"),
    pytest.param(["search", "complex", "--dim", "3", "--init", "remark45"],
                 id="search-remark45-dim3"),
    pytest.param(["bench", "det", "--algo", "cofactor", "--order", str(COFACTOR_CAP + 1)],
                 id="cofactor-over-cap"),
])
def test_library_argument_check_is_an_error_exit(argv, capsys):
    # bounds that the library checks are checked only there: its ValueError
    # exits 2 with one error line and no report
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_bt_and_specialization(tmp_path):
    rc, raw = run_to_file(
        tmp_path, "bt.json",
        ["verify", "bt", "--dim", "4", "--trials", "8", "--seed", "2"],
    )
    assert rc == 0
    assert all(d["status"] == "verified" for d in json.loads(raw))
    rc, raw = run_to_file(tmp_path, "sp.json", ["verify", "specialization", "--m", "5"])
    assert rc == 0
    doc = json.loads(raw)[0]
    assert doc["instance"]["s_C"] == 9


def test_verify_accretive(tmp_path):
    rc, raw = run_to_file(
        tmp_path, "acc.json",
        ["verify", "accretive", "--dim", "5", "--trials", "12", "--seed", "3"],
    )
    assert rc == 0
    docs = json.loads(raw)
    assert len(docs) == 12
    assert all(d["status"] == "verified" for d in docs)


def test_verify_accretive_strict_order_24():
    # a true strict instance whose determinant has pivots below
    # 1e-12 * max|entry|; a zero determinant would refute it with a
    # residual far below the tolerance
    assert cli.main(
        ["verify", "accretive", "--dim", "24", "--trials", "3", "--seed", "25"]
    ) == 0


def test_repro_remark45(tmp_path):
    rc, raw = run_to_file(tmp_path, "r.json", ["repro", "remark45"])
    assert rc == 0
    doc = json.loads(raw)[0]
    assert abs(doc["lhs"] - 168.78) <= 0.01
    assert abs(doc["rhs"] - 171.91) <= 0.01
    assert doc["lhs"] < doc["rhs"]
    assert doc["matrix"]["scalar"] == "complex"


def test_search_complex(tmp_path):
    rc, raw = run_to_file(
        tmp_path, "s.json",
        ["search", "complex", "--dim", "2", "--iters", "150", "--seed", "9"],
    )
    assert rc == 0
    docs = json.loads(raw)
    assert all(d["margin"] < 0 for d in docs)


def test_bench_det(tmp_path):
    rc, raw = run_to_file(
        tmp_path, "b.json",
        ["bench", "det", "--algo", "bareiss", "--order", "4", "--trials", "3"],
    )
    assert rc == 0
    rows = json.loads(raw)
    assert [r["trial"] for r in rows] == [0, 1, 2]
    assert all(set(r) == {"algo", "order", "trial", "nanos", "det_hash"} for r in rows)


def test_bench_det_hashes_are_seed_deterministic(tmp_path):
    _, raw1 = run_to_file(
        tmp_path, "b1.json",
        ["bench", "det", "--algo", "bareiss", "--order", "5", "--trials", "4",
         "--seed", "77"],
    )
    _, raw2 = run_to_file(
        tmp_path, "b2.json",
        ["bench", "det", "--algo", "condensation", "--order", "5", "--trials", "4",
         "--seed", "77"],
    )
    h1 = [r["det_hash"] for r in json.loads(raw1)]
    h2 = [r["det_hash"] for r in json.loads(raw2)]
    assert h1 == h2  # same instances, engines agree


# det_hash of bench det at the default seed, trials 0-4; the exact engines
# must give these on every Python version, whatever their arithmetic path
GOLDEN_DET_HASHES = {
    ("int", 7): ["0ecf85b28ba35a74", "24556d39ba957ccf", "b153517d1e485f1e",
                 "4e8b622bf4ff3473", "ba8201226aad7c59"],
    ("int", 12): ["2b777950d1706914", "81a2ca711c279638", "705bec121ba4f027",
                  "d092fbb8efb7e9cb", "44add40da5fbd9eb"],
    ("poly", 6): ["46926211793069d7", "51c35504e9836fda", "172945efdb171496",
                  "f56f940197f25c17", "c9ef2927ed71a3a7"],
}


@pytest.mark.parametrize("scalar,order,algo", [
    (scalar, order, algo)
    for scalar, order in sorted(GOLDEN_DET_HASHES)
    for algo in ("bareiss", "condensation", "cofactor")
    if algo != "cofactor" or order <= COFACTOR_CAP
])
def test_bench_det_hashes_at_the_default_seed_are_pinned(tmp_path, algo, scalar, order):
    rc, raw = run_to_file(
        tmp_path, "g.json",
        ["bench", "det", "--algo", algo, "--scalar", scalar, "--order", str(order),
         "--trials", "5"],
    )
    assert rc == 0
    assert _det_hashes(raw) == GOLDEN_DET_HASHES[scalar, order]


# SHA-256 of the `verify lemmas --n 10` report at the default seed; its
# skew facts take the polynomial adjugate at m = 9, one order past what the
# benchmark digests reach, so an arithmetic path that changes a byte there
# shows here on every Python version
GOLDEN_LEMMAS_N10 = "b0c4d7ee542bbf40c1ca64170ce1e783c731dac473a7c40f4eeaea2ae6695b84"


def test_verify_lemmas_order_10_report_is_pinned(capsys):
    assert cli.main(["verify", "lemmas", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LEMMAS_N10


def test_byte_identical_reports(tmp_path):
    for name, argv in [
        ("a", ["verify", "johnson", "--n", "5"]),
        ("b", ["verify", "bt", "--dim", "5", "--trials", "6", "--scalar", "real",
               "--seed", "4"]),
        ("c", ["search", "complex", "--dim", "2", "--iters", "80", "--seed", "4"]),
        ("d", ["repro", "remark45"]),
        ("e", ["verify", "accretive", "--dim", "4", "--trials", "6", "--seed", "8"]),
    ]:
        _, raw1 = run_to_file(tmp_path, name + "1.json", argv)
        _, raw2 = run_to_file(tmp_path, name + "2.json", argv)
        assert raw1 == raw2


def test_text_summary_format(capsys):
    rc = cli.main(["verify", "johnson", "--n", "3", "--format", "text-summary"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "claim" in out and "johnson_symbolic_n3" in out and "verified" in out


@pytest.mark.parametrize("argv", [
    ["verify", "johnson", "--n", "4"],
    ["verify", "johnson", "--mode", "numeric", "--n", "5", "--trials", "3"],
    ["verify", "lemmas", "--n", "4", "--trials", "2"],
    ["verify", "bt", "--dim", "3", "--trials", "3", "--scalar", "rat"],
    ["verify", "bt", "--dim", "3", "--trials", "3", "--scalar", "real"],
    ["verify", "specialization", "--m", "4"],
    ["verify", "accretive", "--dim", "3", "--trials", "3"],
])
def test_every_verify_report_carries_the_cli_seed(tmp_path, argv):
    _, raw = run_to_file(tmp_path, "seed.json", argv + ["--seed", "7"])
    docs = json.loads(raw)
    assert docs and all(d["seed"] == 7 for d in docs)


@pytest.mark.parametrize("argv", [
    ["verify", "johnson", "--mode", "numeric"],
    ["verify", "bt", "--scalar", "real"],
    ["verify", "accretive"],
    ["search", "complex"],
    ["verify", "lemmas"],
    ["verify", "specialization"],
    ["repro", "remark45"],
    ["bench", "det", "--algo", "bareiss"],
])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
def test_out_of_range_tol_is_a_usage_error(argv, tol, capsys):
    # the float tolerances are fixed constants and no command takes --tol,
    # so every value, in range or not, is a usage error and moves no verdict
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_non_convergence_is_a_usage_error(monkeypatch, capsys):
    def stuck(h):
        raise numaccretive.ConvergenceError("Jacobi eigensolver did not converge")

    monkeypatch.setattr(numaccretive, "sym_eig", stuck)
    rc = cli.main(["verify", "accretive", "--dim", "3", "--trials", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "did not converge" in captured.err


def test_internal_error_is_a_usage_error(monkeypatch, capsys):
    # a malformed family makes verify_johnson_symbolic raise RuntimeError;
    # that is a bug in the tool, never a refutation (status 1)
    def malformed(n):
        rows = johnson_family(n).to_rows()
        rows[0][1] = rows[0][1] + 1
        return Matrix.from_rows(rows)

    monkeypatch.setattr(identity, "johnson_family", malformed)
    rc = cli.main(["verify", "johnson", "--mode", "symbolic", "--n", "4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "A^T is not A(-b)" in captured.err


def test_any_internal_exception_is_a_usage_error(monkeypatch, tmp_path, capsys):
    # an exact division with a remainder is a ring-contract bug, not a
    # refutation: status 2, a one-line message and no report
    def broken(a, shared, extra):
        raise ExactDivisionError("remainder in a ring that promised none")

    monkeypatch.setattr(identity, "shared_column_minors", broken)
    out = tmp_path / "never.json"
    rc = cli.main(["verify", "johnson", "--n", "4", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: remainder in a ring that promised none\n"


def test_non_finite_numeric_johnson_is_a_usage_error(capsys):
    # order-233 float minors overflow to nan: undecided, not refuted
    rc = cli.main(["verify", "johnson", "--mode", "numeric", "--n", "250",
                   "--trials", "3", "--seed", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: johnson_numeric_t000")
    assert "not finite" in captured.err


def test_remark45_witness_that_is_not_psd_is_a_usage_error(monkeypatch, capsys):
    # the negated witness has a negative definite Hermitian part
    witness = numaccretive.remark45_matrix()
    monkeypatch.setattr(numaccretive, "remark45_matrix", lambda: witness * -1)
    rc = cli.main(["repro", "remark45"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lost positive semidefiniteness" in captured.err


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_failed_out_write_is_a_usage_error(tmp_path, capsys, target):
    out = tmp_path / target
    rc = cli.main(["verify", "specialization", "--m", "3", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert not (tmp_path / "missing").exists()


def _in_process(argv, capsys):
    """(exit status, stdout) of one cli.main call, argparse exits included."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().out


def _own_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(minorcert.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "minorcert.cli", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _det_hashes(out):
    return [row["det_hash"] for row in json.loads(out)]


def test_one_parser_serves_every_command_of_a_process(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    runs = [
        ["verify", "johnson", "--n", "4"],
        ["verify", "lemmas", "--n", "12"],         # argparse: over the cap
        ["verify", "specialization", "--m", "65"],  # library: over its cap
        ["verify", "bt", "--format", "text-summary"],
        ["bench", "det", "--algo", "bareiss", "--order", "4", "--trials", "2"],
    ]
    shared = [_in_process(argv, capsys) for argv in runs]
    own = [_own_process(argv) for argv in runs]
    assert [rc for rc, _ in shared] == [rc for rc, _ in own] == [0, 2, 2, 0, 0]
    assert [out for _, out in shared[:4]] == [out for _, out in own[:4]]
    assert _det_hashes(shared[4][1]) == _det_hashes(own[4][1])
    # the lemmas cap is read when a command is checked, not when the
    # parser is built
    monkeypatch.setattr(identity, "DEFAULT_SYMBOLIC_CAP", 5)
    assert _in_process(["verify", "lemmas", "--n", "6"], capsys) == (2, "")


def test_records_are_read_only_and_seeding_changes_only_the_seed():
    reports = identity.lemmas_suite(4, 2, 1)[::-1]
    eig = numaccretive.sym_eig(identity_matrix(2).map(float))
    witness = numaccretive.remark45_repro()
    for record, field in ((reports[0], "seed"), (witness, "margin"), (eig, "values")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    seeded, ok = cli._seeded(reports, 7)
    assert ok and all(r.seed is None for r in reports)
    assert [r.claim for r in seeded] == sorted(r.claim for r in reports)
    by_claim = {r.claim: r for r in reports}
    for r in seeded:
        assert isinstance(r, CertificateReport) and r.seed == 7
        assert r._replace(seed=None) == by_claim[r.claim]

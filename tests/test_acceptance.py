"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact criteria (1-5) admit no tolerance at all: residuals must be the zero
polynomial or the integer zero.  Numeric criteria (6-8) pin their stated
relative tolerances.  Criterion 9 checks byte-identical reruns.
"""

import json
import time

import pytest

from minorcert import cli
from minorcert.detkit import det_bareiss, det_cofactor, det_condensation
from minorcert.identity import (
    DEFAULT_SYMBOLIC_CAP,
    bt_suite,
    lemmas_suite,
    specialization_certificate,
)
from minorcert.matrix import Matrix, outer, skew_toeplitz
from minorcert.numaccretive import accretive_suite, remark45_repro
from minorcert.rng import random_int_matrix, substream

SEED = 20240817


def _announce(k, message):
    print(f"\nACCEPTANCE {k}: PASS - {message}")


def _cli_json(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, json.loads(out.read_text())


def test_criterion_1_symbolic_johnson_certificates(tmp_path):
    t0 = time.perf_counter()
    for k in range(2, DEFAULT_SYMBOLIC_CAP + 1):
        rc, docs = _cli_json(
            tmp_path, f"johnson{k}.json",
            ["verify", "johnson", "--mode", "symbolic", "--n", str(k)],
        )
        assert rc == 0
        assert docs[0]["status"] == "verified"
        assert docs[0]["residual"] == "0"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"symbolic suite took {elapsed:.1f}s"
    _announce(1, f"johnson symbolic verified for n=2..{DEFAULT_SYMBOLIC_CAP} "
                 f"in {elapsed:.2f}s (exact)")


def test_criterion_2_reduced_case_certificates(tmp_path):
    rc, docs = _cli_json(
        tmp_path, "lemmas.json", ["verify", "lemmas", "--n", "8", "--trials", "50"]
    )
    assert rc == 0
    reduced = [d for d in docs if d["claim"].startswith("reduced_case_n")]
    assert {d["claim"] for d in reduced} == {f"reduced_case_n{n}" for n in range(3, 9)}
    for d in reduced:
        assert d["status"] == "verified"
        assert d["residual"] == "0"
        if d["instance"]["parity"] == "odd":
            assert d["instance"]["square_residual"] == "0"
    _announce(2, "reduced-case identities exact for n=3..8 incl. odd square identity")


def test_criterion_3_specialization_values():
    for m in (3, 5, 7):
        rep = specialization_certificate(m)
        expected = ((m + 1) // 2) ** 2
        assert rep.verified
        assert rep.instance["s_C"] == expected == rep.instance["s_K"]
        assert rep.instance["adj_K_is_uuT"]
        from minorcert.detkit import adjugate

        k = skew_toeplitz([1] + [0] * (m - 1)).block(m, 1, 1)
        u = [1 if i % 2 == 0 else 0 for i in range(m)]
        assert adjugate(k) == outer(u)
    for m in (2, 4, 6):
        rep = specialization_certificate(m)
        assert rep.verified
        assert rep.instance["det_K"] == 1 and rep.instance["det_C"] == 1
    _announce(3, "specialization values exact: s=( (m+1)/2 )^2 odd, det=1 even")


def test_criterion_4_oracle_equivalence_and_desnanot_jacobi():
    for t in range(200):
        stream = substream(SEED, t)
        n = 1 + t % 6
        a = random_int_matrix(stream, n)
        d = det_cofactor(a)
        assert det_bareiss(a) == d
        assert det_condensation(a) == d
        if n >= 2:
            interior = det_bareiss(a.block(n - 2, 2, 2)) if n > 2 else 1
            lhs = d * interior
            rhs = det_bareiss(a.block(n - 1, 1, 1)) * det_bareiss(
                a.block(n - 1, 2, 2)
            ) - det_bareiss(a.block(n - 1, 1, 2)) * det_bareiss(a.block(n - 1, 2, 1))
            assert lhs == rhs
    _announce(4, "200 seeded matrices: three engines agree, condensation identity exact")


def test_criterion_5_lemma_suite():
    reports = lemmas_suite(8, trials=50, seed=SEED)
    rankone = [r for r in reports if r.claim.startswith("rankone_expansion_t")]
    assert len(rankone) == 50
    assert [r.claim for r in reports if r.claim.startswith("skew_facts_m")] == [
        f"skew_facts_m{m}" for m in range(2, 8)
    ]
    assert [r.claim for r in reports if r.claim.startswith("reduced_case_n")] == [
        f"reduced_case_n{n}" for n in range(3, 9)
    ]
    assert all(r.verified and r.residual == "0" for r in reports)
    _announce(
        5,
        "rank-one expansion exact on 50 instances; skew facts symbolic m=2..7; "
        "reduced cases n=3..8",
    )


def test_criterion_6_rank_one_equality():
    exact = bt_suite(6, 50, seed=SEED, scalar="rat")
    assert len(exact) == 50
    assert all(r.verified and r.residual == "0" for r in exact)
    zero_w = [r for r in exact if 0 in r.instance["w"]]
    assert zero_w, "suite must exercise weight vectors with zero components"
    approx = bt_suite(10, 100, seed=SEED, scalar="real")
    assert len(approx) == 100
    assert all(r.verified for r in approx)
    _announce(6, "rank-one equality exact on 50 rational and within 1e-8 on 100 float")


def test_criterion_7_accretive_suite():
    reports = accretive_suite(8, 200, seed=SEED)
    assert len(reports) == 200
    bad = [r for r in reports if not r.verified]
    assert not bad, bad[:3]
    kinds = {r.instance["kind"] for r in reports}
    assert kinds == {"strict", "boundary"}
    strict = [r for r in reports if r.instance["kind"] == "strict"]
    assert all("factorization" in r.instance for r in strict)
    _announce(7, "200 accretive instances: det>=0, adjugate accretive, margin and "
                 "factorization within tolerance")


def test_criterion_8_remark45_reproduction():
    w = remark45_repro()  # raises if the conjugate-symmetric part is not PSD
    assert abs(w.lhs - 168.78) <= 0.01
    assert abs(w.rhs - 171.91) <= 0.01
    assert w.lhs < w.rhs
    _announce(8, f"complex witness reproduced: lhs={w.lhs:.2f} < rhs={w.rhs:.2f}")


def test_criterion_9_byte_identical_reports(tmp_path):
    invocations = [
        ["verify", "johnson", "--n", "6"],
        ["verify", "lemmas", "--n", "4", "--trials", "10", "--seed", "77"],
        ["verify", "bt", "--dim", "6", "--trials", "10", "--scalar", "real",
         "--seed", "77"],
        ["verify", "accretive", "--dim", "5", "--trials", "10", "--seed", "77"],
        ["search", "complex", "--dim", "3", "--iters", "120", "--seed", "77"],
        ["repro", "remark45"],
    ]
    for idx, argv in enumerate(invocations):
        a = tmp_path / f"run{idx}a.json"
        b = tmp_path / f"run{idx}b.json"
        assert cli.main(argv + ["--out", str(a)]) == cli.main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
    _announce(9, "identical invocations emit byte-identical reports")

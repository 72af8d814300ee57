import math

import pytest

from minorcert import cli, numaccretive, rng
from minorcert.detkit import adjugate
from minorcert.matrix import Matrix, identity, max_abs, ones
from minorcert.numaccretive import (
    ConvergenceError,
    accretive,
    accretive_factorize,
    accretive_suite,
    random_accretive,
    remark45_matrix,
    remark45_repro,
    search_complex_violation,
    sym_eig,
    verify_adjugate_accretive,
    verify_det_positive,
    minor_witness,
)
from minorcert.report import UndecidedError
from minorcert.rng import substream


def _random_symmetric(stream, n):
    g = [[stream.gauss() for _ in range(n)] for _ in range(n)]
    return Matrix.from_rows(
        [[(g[i][j] + g[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    )


def _diag(values):
    n = len(values)
    return Matrix(n, n, [values[i] if i == j else 0.0 for i in range(n) for j in range(n)])


def test_sym_eig_diagonal_and_exchange():
    assert [round(v, 12) for v in sym_eig(_diag([2.0, 3.0])).values] == [2.0, 3.0]
    e = sym_eig(Matrix.from_rows([[0.0, 1.0], [1.0, 0.0]]))
    assert [round(v, 12) for v in e.values] == [-1.0, 1.0]


def test_sym_eig_reconstruction_and_orthogonality():
    for t in range(100):
        stream = substream(808, t)
        n = 1 + t % 10
        h = _random_symmetric(stream, n)
        e = sym_eig(h)
        q = e.vectors
        lam = _diag(list(e.values))
        assert max_abs(q @ lam @ q.T - h) <= 1e-10 * max(1.0, max_abs(h))
        assert max_abs(q.T @ q - identity(n).map(float)) <= 1e-10


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_raises_when_out_of_sweeps(monkeypatch):
    # the eigenvalue-only run shares the rotation loop, so it raises too
    monkeypatch.setattr(numaccretive, "MAX_SWEEPS", 0)
    for h in (Matrix.from_rows([[2.0, 1.0], [1.0, 2.0]]), _diag([1.0, 2.0])):
        with pytest.raises(ConvergenceError, match="in 0 sweeps"):
            sym_eig(h)
        with pytest.raises(ConvergenceError, match="in 0 sweeps"):
            numaccretive._jacobi(h, False)


def _eigen_inputs():
    """Seeded symmetric matrices of orders 1-9, the symmetric parts of
    adjugates of accretive instances, and already diagonal input."""
    hs = [_random_symmetric(substream(813, t), 1 + t % 9) for t in range(27)]
    for t in range(9):
        a = random_accretive(substream(814, t), 2 + t % 7, boundary=t % 3 == 0)
        hs.append(numaccretive._sym_part(adjugate(a)))
    hs += [_diag([3.0]), _diag([2.0, -1.0, 2.0]), _diag([0.0, -0.0, 5.0, 1e-300])]
    return hs


def test_eigenvalue_only_run_matches_sym_eig_by_repr():
    for h in _eigen_inputs():
        values = numaccretive._jacobi(h, False)[0]
        assert list(map(repr, values)) == list(map(repr, sym_eig(h).values))


def test_eigenvalue_only_run_against_numpy_eigvalsh():
    np = pytest.importorskip("numpy")
    for h in _eigen_inputs():
        expected = np.linalg.eigvalsh(np.array(h.to_rows(), dtype=float))
        scale = max(1.0, float(np.max(np.abs(expected))))
        values = numaccretive._jacobi(h, False)[0]
        assert np.allclose(values, expected, rtol=0, atol=1e-10 * scale)


def test_psd_check():
    assert accretive(identity(3).map(float)).strict
    with pytest.raises(ValueError):
        accretive(_diag([1.0, -1.0]))  # symmetric part is indefinite
    boundary = accretive(ones(4).map(float))  # rank one, spectrum {4, 0, 0, 0}
    assert not boundary.strict


def test_accretive_constructor_decides_accretivity_once():
    acc = accretive(identity(3).map(float))
    assert acc.sym == identity(3).map(float)
    assert [round(v, 12) for v in acc.eig.values] == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        accretive(Matrix(2, 3, [1.0] * 6))


def test_factorize_trivial_skew_plus_identity():
    s0 = Matrix.from_rows([[0.0, 1.0], [-1.0, 0.0]])
    a = identity(2).map(float) + s0
    h_sqrt, s, rep = accretive_factorize(accretive(a))
    assert rep.verified
    assert max_abs(h_sqrt - identity(2).map(float)) < 1e-9
    assert max_abs(s - s0) < 1e-9


def test_factorize_rejects_singular_symmetric_part():
    acc = accretive(Matrix.from_rows([[1.0, 5.0], [-3.0, 1.0]]))
    assert not acc.strict
    with pytest.raises(ValueError):
        accretive_factorize(acc)
    with pytest.raises(ValueError):
        acc.factorization


def test_factorize_random_strict():
    for t in range(10):
        stream = substream(810, t)
        acc = accretive(random_accretive(stream, 6))
        _, _, rep = acc.factorization
        assert rep.verified, rep.instance
        assert acc.factorization is acc.factorization


def test_det_positive_eigen_product():
    s0 = Matrix.from_rows([[0.0, 1.0], [-1.0, 0.0]])
    a = identity(2).map(float) + s0
    rep = verify_det_positive(accretive(a))
    assert rep.verified
    assert abs(rep.instance["det"] - 2.0) < 1e-12  # det H * (1 + mu^2) = 1 * 2
    assert rep.instance["product_formula_relerr"] <= 1e-6
    assert verify_det_positive(accretive(identity(3).map(float))).verified


def test_det_positive_refutes_a_wrong_det_of_i_plus_s(monkeypatch):
    # the cross-check det(A) = det(H) det(I + S) is live: a doubled
    # det(I + S) breaks it, although det(A) > 0 still holds
    acc = accretive(random_accretive(substream(811, 0), 5))
    assert acc.strict and verify_det_positive(acc).verified
    eye_plus_s = identity(5).map(float) + acc.factorization[1]
    original = numaccretive.det_bareiss

    def doubled(m):
        d = original(m)
        return 2.0 * d if m == eye_plus_s else d

    monkeypatch.setattr(numaccretive, "det_bareiss", doubled)
    rep = verify_det_positive(acc)
    assert rep.status == "refuted"
    assert rep.instance["det"] > 0
    assert rep.instance["product_formula_relerr"] > 0.4


def test_det_positive_random():
    for t in range(20):
        stream = substream(811, t)
        a = random_accretive(stream, 6)
        rep = verify_det_positive(accretive(a))
        assert rep.verified
        assert rep.instance["det"] > 0


def test_det_positive_keeps_tiny_nonzero_pivots():
    # the normalized strict instances have leading minors that shrink
    # geometrically with the order; at order 19 a Bareiss pivot falls below
    # 1e-12 * max|entry| and must still not count as singular
    acc = accretive(random_accretive(substream(9, 5), 19))
    rep = verify_det_positive(acc)
    assert rep.verified, rep.instance
    assert rep.instance["det"] > 0


def test_order_26_minors_are_not_flushed_to_zero():
    # d21 and det A of this instance have pivots below 1e-12 * max|entry|;
    # none of the minors may come back as 0.0
    acc = accretive(random_accretive(substream(99, 3), 26))
    witness = minor_witness(acc.matrix, "inequality")
    assert all(d != 0.0 for d in witness.minors), witness.minors
    assert witness.margin >= -1e-8 * max(1.0, witness.lhs + witness.rhs)
    assert verify_det_positive(acc).verified


def test_float_reports_carry_their_fixed_tolerances():
    assert numaccretive.DET_TOL == 1e-9
    assert numaccretive.ACCRETIVE_TOL == 1e-8
    acc = accretive(random_accretive(substream(813, 0), 5))
    assert verify_det_positive(acc).tolerance == 1e-9
    assert verify_adjugate_accretive(acc).tolerance == 1e-8
    assert {r.tolerance for r in accretive_suite(5, 8, seed=15)} == {1e-8}


def test_factorization_verdict_and_suite_residual_share_one_tolerance(monkeypatch):
    # at a tolerance below roundoff the strict factorization claim refutes,
    # and the suite's normalized residual must rise above its tolerance too
    assert numaccretive.FACTOR_TOL == 1e-8
    monkeypatch.setattr(numaccretive, "FACTOR_TOL", 1e-30)
    _, _, rep = accretive_factorize(accretive(random_accretive(substream(813, 0), 5)))
    assert not rep.verified and rep.tolerance == 1e-30
    assert rep.residual > rep.tolerance
    strict = [r for r in accretive_suite(5, 3, seed=15) if r.instance["kind"] == "strict"]
    assert strict and all(not r.verified for r in strict)
    assert all(r.residual > r.tolerance for r in strict)


def test_det_positive_rejects_non_accretive():
    with pytest.raises(ValueError):
        verify_det_positive(accretive(_diag([1.0, -1.0])))


def test_adjugate_accretive_cases():
    assert verify_adjugate_accretive(accretive(identity(3).map(float))).verified
    assert verify_adjugate_accretive(accretive(ones(2).map(float))).verified
    for t in range(20):
        stream = substream(812, t)
        a = random_accretive(stream, 5, boundary=t % 2 == 0)
        assert verify_adjugate_accretive(accretive(a)).verified


def test_inequality_rank_one_equality_case():
    acc = accretive(Matrix.from_rows([[1.0, 2.0], [0.0, 1.0]]))
    w = minor_witness(acc.matrix, "inequality")
    assert w.minors == (1.0, 1.0, 2.0, 0.0)
    assert w.lhs == w.rhs == 1.0
    assert w.margin == 0.0


def test_inequality_identity_case():
    w = minor_witness(accretive(identity(3).map(float)).matrix, "inequality")
    assert w.lhs == 1.0 and w.rhs == 0.0 and w.margin == 1.0


def test_inequality_random_margins():
    for t in range(30):
        stream = substream(813, t)
        n = 4 + t % 5
        a = random_accretive(stream, n, boundary=t % 4 == 3)
        w = minor_witness(accretive(a).matrix, "inequality")
        assert w.margin >= -1e-8 * max(1.0, w.lhs + w.rhs)


def test_inequality_rejects_non_accretive():
    with pytest.raises(ValueError):
        minor_witness(accretive(_diag([1.0, -1.0])).matrix, "inequality")


def test_inequality_needs_order_two():
    with pytest.raises(ValueError):
        minor_witness(accretive(_diag([1.0])).matrix, "inequality")


def test_rank_one_instances_sit_on_the_equality_boundary():
    for t in range(10):
        stream = substream(814, t)
        n = 3 + t % 4
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = stream.uniform(-1.0, 1.0)
                rows[i][j] = v
                rows[j][i] = -v
        alpha = stream.uniform(0.0, 3.0)
        wvec = [stream.uniform(-2.0, 2.0) for _ in range(n)]
        a = Matrix.from_rows(rows) + (alpha / 2.0) * Matrix(
            n, n, [x * y for x in wvec for y in wvec]
        )
        w = minor_witness(accretive(a).matrix, "inequality")
        assert abs(w.margin) <= 1e-8 * max(1.0, w.lhs + w.rhs)


def test_accretive_suite():
    reports = accretive_suite(6, 24, seed=15)
    assert all(r.verified for r in reports)
    kinds = {r.instance["kind"] for r in reports}
    assert kinds == {"strict", "boundary"}


def _one_process(monkeypatch):
    # the counters below live in this process, so no trial may run in a
    # worker process (see tests/test_map_trials.py for the split)
    monkeypatch.setattr(rng, "_cpu_count", lambda: 1)


def test_accretive_suite_decomposes_each_matrix_once(monkeypatch):
    # per claim: one eigendecomposition of H and one eigenvalue-only run on
    # the adjugate's symmetric part, which does not go through sym_eig; per
    # strict claim one factorization that the determinant cross-check and
    # the suite share
    _one_process(monkeypatch)
    calls = {"sym_eig": 0, "_jacobi": 0, "accretive_factorize": 0}
    for name in calls:
        original = getattr(numaccretive, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(numaccretive, name, counted)
    trials = 40
    reports = numaccretive.accretive_suite(8, trials, seed=27)
    strict = sum(r.instance["kind"] == "strict" for r in reports)
    assert strict == 30
    assert calls == {"sym_eig": trials, "_jacobi": 2 * trials, "accretive_factorize": strict}


def test_accretive_suite_reads_its_minors_off_one_adjugate(monkeypatch):
    # per claim one adjugate, which the accretivity check and the minor
    # inequality share; no minor is eliminated a second time
    _one_process(monkeypatch)
    calls = {"adjugate": 0, "contiguous_minors": 0, "minor_witness": 0}
    for name in calls:
        original = getattr(numaccretive, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(numaccretive, name, counted)
    trials = 40
    reports = numaccretive.accretive_suite(8, trials, seed=27)
    assert all(r.verified for r in reports)
    assert calls == {"adjugate": trials, "contiguous_minors": 0, "minor_witness": 0}


def test_suite_minors_are_the_contiguous_minors_by_bits(monkeypatch):
    # the corners the suite reads keep the bits of minor_witness's minors
    _one_process(monkeypatch)
    seen = []
    original = numaccretive._witness

    def spy(a, label, minors):
        seen.append((a, minors))
        return original(a, label, minors)

    monkeypatch.setattr(numaccretive, "_witness", spy)
    accretive_suite(8, 40, seed=27)
    assert len(seen) == 40
    for a, minors in seen:
        want = numaccretive.contiguous_minors(a)
        assert [x.hex() for x in minors] == [x.hex() for x in want]


def test_remark45_values():
    w = remark45_repro()
    assert abs(w.lhs - 168.78) <= 0.01
    assert abs(w.rhs - 171.91) <= 0.01
    assert w.margin < 0


def test_remark45_hermitian_part_psd():
    # accretive on the real embedding [[X, -Y], [Y, X]] decomposes the
    # embedding of (A + A*)/2, so it has each Hermitian eigenvalue twice
    a = remark45_matrix()
    vals = accretive(numaccretive._real_embedding(a)).eig.values
    assert len(vals) == 8 and vals[0] > 0.09
    np = pytest.importorskip("numpy")
    h = np.array(a.to_rows(), dtype=complex)
    expected = np.sort(np.repeat(np.linalg.eigvalsh((h + h.conj().T) / 2), 2))
    assert np.allclose(vals, expected, rtol=1e-9, atol=0)


def test_remark45_witness_with_indefinite_hermitian_part_is_undecided(monkeypatch, capsys):
    # the diagonal shifted by -0.2 moves every Hermitian eigenvalue by -0.2,
    # the smallest to about -0.100: the hypothesis fails, so no verdict
    shifted = tuple(
        tuple(z - 0.2 if i == j else z for j, z in enumerate(row))
        for i, row in enumerate(numaccretive._REMARK45_ROWS)
    )
    monkeypatch.setattr(numaccretive, "_REMARK45_ROWS", shifted)
    with pytest.raises(UndecidedError, match="lost positive semidefiniteness"):
        remark45_repro()
    assert cli.main(["repro", "remark45"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_hand_checked_dim2_violation():
    # 2x2 over C: conjugate-symmetric part is the identity (PSD), yet the
    # transpose-based minors give lhs = 1 < rhs = 10
    a = Matrix.from_rows([[1 + 0j, 10j], [10j, 1 + 0j]])
    w = minor_witness(a, "hand")
    assert w.lhs == 1.0 and w.rhs == 10.0 and w.margin == -9.0
    assert w.clamp == 0.0


def test_witness_clamps_only_a_negative_real_product():
    # real: d11 * d22 = -1 is clamped to zero and the clamp recorded
    w = minor_witness(_diag([1.0, -1.0]), "real")
    assert w.minors == (1.0, -1.0, 0.0, 0.0)
    assert w.clamp == 1.0 and w.lhs == 0.0 and w.rhs == 0.0 and w.margin == 0.0
    # complex: d11 * d22 = (1j)(1j) = -1 is taken by its modulus, no clamp
    w = minor_witness(Matrix.from_rows([[1j, 0j], [0j, 1j]]), "complex")
    assert w.clamp == 0.0 and w.lhs == 1.0 and w.rhs == 0.0
    with pytest.raises(ValueError):
        minor_witness(_diag([1.0]), "order one")


def test_search_finds_dim2_violations():
    found = search_complex_violation(2, 400, seed=21)
    assert found
    assert all(w.margin < 0 for w in found)


def test_search_determinism():
    a = search_complex_violation(3, 150, seed=5)
    b = search_complex_violation(3, 150, seed=5)
    assert [w.label for w in a] == [w.label for w in b]
    assert [w.margin for w in a] == [w.margin for w in b]


@pytest.mark.parametrize("seed", [1, 7])
def test_search_stops_at_the_witness_cap(monkeypatch, seed):
    calls = []

    def counting(a, label):
        calls.append(label)
        return minor_witness(a, label)

    monkeypatch.setattr(numaccretive, "minor_witness", counting)
    full = search_complex_violation(4, 10000, seed)
    assert len(full) == 100
    last = max(int(w.label.rsplit("_i", 1)[1]) for w in full)
    assert len(calls) == last + 1 < 10000
    short = search_complex_violation(4, last + 1, seed)
    assert [w.label for w in short] == [w.label for w in full]
    assert [w.margin for w in short] == [w.margin for w in full]
    calls.clear()
    monkeypatch.setattr(numaccretive, "MAX_WITNESSES", 0)
    assert search_complex_violation(4, 10000, seed) == []
    assert calls == []


def test_search_init_remark45():
    found = search_complex_violation(4, 25, seed=1, init="remark45")
    assert any(w.label == "search_d4_i000000" for w in found)
    with pytest.raises(ValueError):
        search_complex_violation(3, 10, seed=1, init="remark45")


def test_witness_json():
    w = remark45_repro()
    doc = w.to_json()
    assert doc["label"] == "remark45"
    assert doc["matrix"]["scalar"] == "complex"
    assert math.isclose(doc["lhs"] - doc["rhs"], doc["margin"])
    assert list(doc) == ["label", "matrix", "minors", "lhs", "rhs", "margin", "clamp"]
    assert doc["minors"] == {
        name: [d.real, d.imag] for name, d in zip(("d11", "d22", "d12", "d21"), w.minors)
    }
    assert (doc["lhs"], doc["rhs"], doc["clamp"]) == (w.lhs, w.rhs, w.clamp)
    with pytest.raises(ValueError):
        w._replace(minors=w.minors[:3]).to_json()

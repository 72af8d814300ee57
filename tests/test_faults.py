"""Fault injection: an engine that a verdict reads is patched to return a
wrong result, and the verify command must then exit 1 (refuted) or 2
(error), never 0 ("verified"), or the verifier must report "refuted".
Where a verdict has several checks, a fault that fails one check alone
shows that the verdict reads it (``scripts/mutate_verdicts.py`` drops
each check in turn and expects a test here to fail).

A fault that no check catches yet is a strict xfail naming the ROADMAP item
that will catch it, so that the change which does has to flip it.

``verify lemmas`` shares its claims out across processes, so each of its
fault cases runs once more split over two, and must print the same bytes
and exit the same as in one process."""
import os

import pytest

from minorcert import cli, identity, numaccretive, rng
from minorcert.matrix import Matrix, generic_skew_toeplitz, is_skew_symmetric
from minorcert.ring import MonomialTable, MultiPoly

SILENT_UNTIL_ITEM_7 = (
    "ROADMAP item 7: no check evaluates the minors a symbolic residual "
    "reads, so this fault still gives 'verified'"
)
SKEW_FACTS_UNTIL_ITEM_7 = (
    "ROADMAP item 7: the skew facts hold for a zero, negated, transposed "
    "or termwise-truncated adjugate, and no check evaluates its entries"
)


def _zero_minors(results):
    return [x * 0 for x in results]


def _first_minor_twice(results):
    # d11 in place of d12
    return results[:1] * len(results)


def _later_leading_terms_dropped(results):
    return results[:1] + [MultiPoly(x.nvars, x.terms()[1:]) for x in results[1:]]


def _later_signs_flipped(results):
    return results[:1] + [-x for x in results[1:]]


COMMANDS = {
    "johnson": ["verify", "johnson", "--n", "6"],
    "lemmas": ["verify", "lemmas", "--n", "7", "--trials", "2"],
}


def _marked(faults, silent, reason):
    return [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))
        if name in silent else name
        for name in faults
    ]


def _silent(*commands):
    return _marked(COMMANDS, commands, SILENT_UNTIL_ITEM_7)


def _run(monkeypatch, capsys, engine, fault, argv, owner=identity):
    """Runs argv with ``owner.<engine>`` returning ``fault`` of its result;
    returns the exit status and the captured output and error text."""
    real = getattr(owner, engine)
    monkeypatch.setattr(owner, engine, lambda *args: fault(real(*args)))
    rc = cli.main(argv)
    return (rc, *capsys.readouterr())


def _caught(monkeypatch, capsys, engine, fault, argv, owner=identity):
    """True when argv, run with the fault, exits 1 (refuted) or 2 (error)."""
    return _run(monkeypatch, capsys, engine, fault, argv, owner)[0] in (1, 2)


def _minors_caught(monkeypatch, capsys, fault, command):
    return _caught(
        monkeypatch, capsys, "shared_column_minors", fault, COMMANDS[command]
    )


@pytest.mark.parametrize("command", COMMANDS)
def test_the_unpatched_commands_verify(capsys, command):
    assert cli.main(COMMANDS[command]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", _silent("johnson", "lemmas"))
def test_zero_minors_are_caught(monkeypatch, capsys, command):
    assert _minors_caught(monkeypatch, capsys, _zero_minors, command)


@pytest.mark.parametrize("command", _silent("johnson", "lemmas"))
def test_a_minor_returned_twice_is_caught(monkeypatch, capsys, command):
    assert _minors_caught(monkeypatch, capsys, _first_minor_twice, command)


# johnson's residual d12 + d12(-b) - 2 d11 reads only the even-degree part
# of d12, and d12's leading term at order 6 has degree 5
@pytest.mark.parametrize("command", _silent("johnson"))
def test_a_dropped_leading_term_is_caught(monkeypatch, capsys, command):
    assert _minors_caught(monkeypatch, capsys, _later_leading_terms_dropped, command)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_flipped_sign_is_caught(monkeypatch, capsys, command):
    assert _minors_caught(monkeypatch, capsys, _later_signs_flipped, command)


# -- MonomialTable.sum_of_products: every step of the symbolic expansions --

# each call's index form, a tuple of bands: zero, negated, or without the
# first term of its top band.  A sign flipped at every level multiplies each
# order-k minor by (-1)^k, and every residual compares minors of one order,
# so it stays zero
TABLE_FAULTS = {
    "zero": lambda bands: (),
    "flipped": lambda bands: tuple({i: -v for i, v in d.items()} for d in bands),
    "term_dropped": lambda bands: (dict(list(bands[0].items())[1:]), *bands[1:])
    if bands else bands,
}
TABLE_SILENT = {
    "zero": ("johnson", "lemmas"),
    "flipped": ("johnson", "lemmas"),
    "term_dropped": ("lemmas",),
}


@pytest.mark.parametrize(
    "fault,command",
    [
        pytest.param(
            fault,
            command,
            marks=pytest.mark.xfail(strict=True, reason=SILENT_UNTIL_ITEM_7),
        )
        if command in TABLE_SILENT[fault] else (fault, command)
        for fault in TABLE_FAULTS
        for command in COMMANDS
    ],
)
def test_a_faulty_table_sum_is_caught(monkeypatch, capsys, fault, command):
    assert _caught(
        monkeypatch,
        capsys,
        "sum_of_products",
        TABLE_FAULTS[fault],
        COMMANDS[command],
        owner=MonomialTable,
    )


BT = ["verify", "bt", "--scalar", "rat", "--dim", "5", "--trials", "10"]
SPECIALIZATION_EVEN = ["verify", "specialization", "--m", "6"]
SPECIALIZATION_ODD = ["verify", "specialization", "--m", "7"]


@pytest.mark.parametrize("argv", [BT, SPECIALIZATION_EVEN, SPECIALIZATION_ODD])
def test_the_unpatched_engine_commands_verify(capsys, argv):
    assert cli.main(argv) == 0
    capsys.readouterr()


# -- contiguous_minors: the exact rank-one equality of verify bt -----------

# contiguous_minors returns (d11, d22, d12, d21)
CONTIGUOUS_FAULTS = {
    "d12_flipped": lambda d: (d[0], d[1], -d[2], d[3]),
    "d11_for_d12": lambda d: (d[0], d[1], d[0], d[3]),
    "d11_swapped_with_d12": lambda d: (d[2], d[1], d[0], d[3]),
    "zero": lambda d: tuple(x * 0 for x in d),
    "d11_four_times": lambda d: (d[0],) * 4,
}


@pytest.mark.parametrize("fault", CONTIGUOUS_FAULTS)
def test_a_faulty_contiguous_minor_is_caught(monkeypatch, capsys, fault):
    assert _caught(
        monkeypatch, capsys, "contiguous_minors", CONTIGUOUS_FAULTS[fault], BT
    )


def test_a_minor_that_disagrees_with_the_cofactor_oracle_exits_2(monkeypatch, capsys):
    # a flipped d12 alone would refute; the oracle, which recomputes every
    # minor up to BT_ORACLE_ORDER, makes it an engine fault, never a verdict
    rc, out, err = _run(
        monkeypatch, capsys, "contiguous_minors", CONTIGUOUS_FAULTS["d12_flipped"], BT
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: bt_n") and "cofactor oracle" in err


# -- adjugate: the skew facts of verify lemmas and the odd specialization --

def _columns(adj, first, second):
    rows = adj.to_rows()
    return Matrix.from_rows([[r[first], r[second], *r[2:]] for r in rows])


def _leading_term_dropped(x):
    return MultiPoly(x.nvars, x.terms()[1:]) if isinstance(x, MultiPoly) else x


ADJUGATE_FAULTS = {
    "columns_swapped": lambda adj: _columns(adj, 1, 0),
    "column_duplicated": lambda adj: _columns(adj, 0, 0),
    "zero": lambda adj: adj.map(lambda x: x * 0),
    "negated": lambda adj: -adj,
    "transposed": lambda adj: adj.T,
    "leading_terms_dropped": lambda adj: adj.map(_leading_term_dropped),
}


@pytest.mark.parametrize(
    "fault",
    _marked(
        ADJUGATE_FAULTS,
        ("zero", "negated", "transposed", "leading_terms_dropped"),
        SKEW_FACTS_UNTIL_ITEM_7,
    ),
)
def test_a_faulty_skew_adjugate_is_caught(monkeypatch, capsys, fault):
    assert _caught(
        monkeypatch, capsys, "adjugate", ADJUGATE_FAULTS[fault], COMMANDS["lemmas"]
    )


# the specialization's adjugates have integer entries, which keep their
# terms under leading_terms_dropped, so that fault changes nothing there
@pytest.mark.parametrize(
    "fault", [f for f in ADJUGATE_FAULTS if f != "leading_terms_dropped"]
)
def test_a_faulty_integer_adjugate_is_caught(monkeypatch, capsys, fault):
    assert _caught(
        monkeypatch, capsys, "adjugate", ADJUGATE_FAULTS[fault], SPECIALIZATION_ODD
    )


# -- det_bareiss: the even specialization and the rank-one expansions ------

BAREISS_FAULTS = {"zero": lambda d: d * 0, "flipped": lambda d: -d}


@pytest.mark.parametrize("fault", BAREISS_FAULTS)
@pytest.mark.parametrize(
    "argv",
    [SPECIALIZATION_EVEN, COMMANDS["lemmas"], SPECIALIZATION_ODD],
    ids=["specialization", "lemmas", "odd_specialization"],
)
def test_a_faulty_bareiss_determinant_is_caught(monkeypatch, capsys, argv, fault):
    assert _caught(monkeypatch, capsys, "det_bareiss", BAREISS_FAULTS[fault], argv)


# K is skew-symmetric and C = I - L^2 is not, so each of the even
# specialization's two determinants can be made wrong alone
@pytest.mark.parametrize("block", ["K", "C"])
def test_one_wrong_even_specialization_determinant_is_refuted(monkeypatch, block):
    real = identity.det_bareiss
    monkeypatch.setattr(
        identity,
        "det_bareiss",
        lambda x: real(x) + (is_skew_symmetric(x) == (block == "K")),
    )
    assert identity.specialization_certificate(6).status == "refuted"


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_a_refuted_odd_specialization_has_a_nonzero_residual(monkeypatch, m):
    # a transposed adjugate leaves s(C) and s(K) right, but not C^{-1} 1
    real = identity.adjugate
    monkeypatch.setattr(identity, "adjugate", lambda x: real(x).T)
    report = identity.specialization_certificate(m)
    assert report.status == "refuted"
    assert report.residual != "0"


@pytest.mark.parametrize("m", [4, 6])
def test_a_refuted_even_specialization_has_a_nonzero_residual(monkeypatch, m):
    # det K one too many and det C one too few: their defects sum to zero
    real = identity.det_bareiss
    monkeypatch.setattr(
        identity, "det_bareiss", lambda x: real(x) + (1 if is_skew_symmetric(x) else -1)
    )
    report = identity.specialization_certificate(m)
    assert report.status == "refuted"
    assert report.residual == "1"


def test_a_nonzero_odd_skew_determinant_is_refuted(monkeypatch):
    # the adjugate stays right, so only det Y = 0 can refute
    real = identity.shared_column_minors
    monkeypatch.setattr(
        identity, "shared_column_minors", lambda *args: [d + 1 for d in real(*args)]
    )
    report = identity.verify_skew_facts(generic_skew_toeplitz(5))
    assert report.instance["adjugate_transpose_identity"]
    assert report.status == "refuted"


# -- verify lemmas split over two processes ----------------------------------

# every fault case above that runs verify lemmas: (owner, engine, fault)
LEMMAS_CASES = {
    "unpatched": (identity, "adjugate", lambda adj: adj),
    "zero_minors": (identity, "shared_column_minors", _zero_minors),
    "minor_twice": (identity, "shared_column_minors", _first_minor_twice),
    "flipped_sign": (identity, "shared_column_minors", _later_signs_flipped),
    **{f"table_{k}": (MonomialTable, "sum_of_products", f) for k, f in TABLE_FAULTS.items()},
    **{f"adjugate_{k}": (identity, "adjugate", f) for k, f in ADJUGATE_FAULTS.items()},
    **{f"bareiss_{k}": (identity, "det_bareiss", f) for k, f in BAREISS_FAULTS.items()},
}


def _split_lemmas(monkeypatch):
    """Splits the battery over two processes, as tests/test_map_trials.py
    does, and holds the parent in its first job after job 0 until the
    worker has run every other job and exited, so that the worker computes
    all but two claims with the engines as the parent patched them.
    Returns a pipe that holds one byte per job the worker ran."""
    monkeypatch.setattr(rng, "_cpu_count", lambda: 2)
    split = rng.map_trials
    parent = os.getpid()
    ran_r, ran_w = os.pipe()

    def map_trials(job, count):
        r, w = os.pipe()  # once the parent closes w, only the worker holds it
        held = []

        def held_job(k):
            if os.getpid() != parent:
                os.write(ran_w, b"x")
            elif k > 0 and not held:
                held.append(k)
                os.close(w)
                while os.read(r, 1):  # end of file once the worker exits
                    pass
            return job(k)

        try:
            return split(held_job, count)
        finally:
            os.close(r)
            if not held:
                os.close(w)

    monkeypatch.setattr(identity, "map_trials", map_trials)
    return ran_r, ran_w


@pytest.mark.parametrize("case", LEMMAS_CASES)
def test_a_split_lemmas_run_gives_the_same_result(monkeypatch, capsys, case):
    argv = COMMANDS["lemmas"]
    owner, engine, fault = LEMMAS_CASES[case]
    one = _run(monkeypatch, capsys, engine, fault, argv, owner)
    monkeypatch.undo()
    ran_r, ran_w = _split_lemmas(monkeypatch)
    try:
        two = _run(monkeypatch, capsys, engine, fault, argv, owner)
        os.set_blocking(ran_r, False)
        assert os.read(ran_r, 64)  # the worker ran jobs
    finally:
        os.close(ran_r)
        os.close(ran_w)
    assert two == one


# -- float verdicts: each one is seen to refute ------------------------------

# a matrix whose corner a_11 is one more: of the four contiguous minors it
# changes only A_m(1,1), by the cofactor of a_11 in it
def _corner_bumped(a):
    rows = a.to_rows()
    rows[0][0] += 1.0
    return Matrix.from_rows(rows)


def test_a_perturbed_float_bt_minor_is_refuted(monkeypatch):
    skew = Matrix.from_rows(
        [[0.0, 1.5, -0.5, 2.0], [-1.5, 0.0, 1.0, -1.0],
         [0.5, -1.0, 0.0, 0.5], [-2.0, 1.0, -0.5, 0.0]]
    )
    w = [0.5, -1.0, 1.5, 2.0]
    assert identity.verify_bt(skew, 1.5, w).verified
    real = numaccretive.minor_witness
    monkeypatch.setattr(
        numaccretive, "minor_witness", lambda a, label: real(_corner_bumped(a), label)
    )
    assert identity.verify_bt(skew, 1.5, w).status == "refuted"


def test_a_negative_float_bt_product_is_refuted(monkeypatch):
    # trial 0 has n = 2 and w = [0, 1.298]: the bumped d11 d22 is -0.98 and
    # d12 + d21 = 0, so the margin is 0 and only the clamp can refute
    real = numaccretive.minor_witness
    monkeypatch.setattr(
        numaccretive, "minor_witness", lambda a, label: real(_corner_bumped(a), label)
    )
    reports = identity.bt_suite(5, 10, cli.DEFAULT_SEED, scalar="real")
    assert reports[0].instance["n"] == 2
    assert {r.status for r in reports} == {"refuted"}
    assert reports[0].residual > 0.9


def test_a_perturbed_numeric_johnson_minor_is_refuted(monkeypatch):
    # A_m(1,1) is the one block of A = J + B whose corner is exactly 1.0:
    # the corners of A_m(1,2) and A_m(2,1) are 1 + b1 and 1 - b1
    real = identity.det_bareiss
    monkeypatch.setattr(
        identity, "det_bareiss", lambda x: real(x) + (x[0, 0] == 1.0)
    )
    reports = identity.johnson_numeric_suite(8, 10, cli.DEFAULT_SEED)
    assert {r.status for r in reports} == {"refuted"}


def test_an_adjugate_that_is_not_accretive_is_refuted():
    acc = numaccretive.accretive(
        Matrix.from_rows([[2.0, 1.0, 0.0], [-1.0, 2.0, 1.0], [0.0, -1.0, 2.0]])
    )
    assert numaccretive.verify_adjugate_accretive(acc).verified
    acc.adjugate = -acc.adjugate  # the cached adjugate, negated
    assert numaccretive.verify_adjugate_accretive(acc).status == "refuted"


# -- each check of the accretive claims refutes on its own -------------------

def _near_miss_adjugate(a):
    # a symmetric part whose least eigenvalue is about -1e-10 against a
    # largest of about 1, so it passes as accretive, while d22 = adj[0, 0] =
    # 0 and the corners adj[0, n-1] = adj[n-1, 0] = 1e-5 make the margin
    # -1e-5
    n = a.rows
    rows = [[float(i == j) for j in range(n)] for i in range(n)]
    rows[0][0] = 0.0
    rows[0][n - 1] = rows[n - 1][0] = 1e-5
    return Matrix.from_rows(rows)


# (engine, faulty engine from the real one): each fails one of the trial's
# checks, the determinant, the adjugate's accretivity or the margin, and
# leaves the others passing
ACCRETIVE_TRIAL_FAULTS = {
    "det_negated": ("det_bareiss", lambda real: lambda x: -real(x)),
    "adjugate_negated": ("adjugate", lambda real: lambda x: -real(x)),
    "margin_negative": ("adjugate", lambda real: _near_miss_adjugate),
}


@pytest.mark.parametrize("fault", ACCRETIVE_TRIAL_FAULTS)
def test_each_accretive_trial_check_refutes(monkeypatch, fault):
    engine, faulty = ACCRETIVE_TRIAL_FAULTS[fault]
    monkeypatch.setattr(numaccretive, engine, faulty(getattr(numaccretive, engine)))
    reports = numaccretive.accretive_suite(6, 8, cli.DEFAULT_SEED)
    strict = [r for r in reports if r.instance["kind"] == "strict"]
    assert strict and {r.status for r in strict} == {"refuted"}


# A = I + N with N = [[0, 1/2], [-1/2, 0]]: H = I, so H^{1/2} = H^{-1/2} = I
# and S = N exactly, and each fault below moves one residual of the
# factorization past its tolerance and leaves the other two within theirs
HALF_SKEW = Matrix.from_rows([[1.0, 0.5], [-0.5, 1.0]])
FACTORIZATION_FAULTS = {
    # H^{-1/2} + 1e-8 e_0 e_1^T makes S = N - 5e-9 I: skew residual 1e-8,
    # reconstruction 5e-9, inverse identity about 3e-9
    "skew_residual": (
        "_sqrt_pair",
        lambda real: lambda eig: (
            real(eig)[0], real(eig)[1] + Matrix.from_rows([[0.0, 1e-8], [0.0, 0.0]])
        ),
    ),
    "reconstruction_residual": (
        "_sqrt_pair", lambda real: lambda eig: (2.0 * real(eig)[0], real(eig)[1])
    ),
    # Re((I + S)^{-1}) read as I against (I - S^2)^{-1} = I / 1.25
    "inverse_identity_residual": ("inverse", lambda real: lambda x: x),
}


@pytest.mark.parametrize("fault", FACTORIZATION_FAULTS)
def test_each_factorization_check_refutes(monkeypatch, fault):
    acc = numaccretive.accretive(HALF_SKEW)
    assert numaccretive.accretive_factorize(acc)[2].verified
    engine, faulty = FACTORIZATION_FAULTS[fault]
    monkeypatch.setattr(numaccretive, engine, faulty(getattr(numaccretive, engine)))
    report = numaccretive.accretive_factorize(acc)[2]
    assert report.status == "refuted"
    tolerances = {
        "skew_residual": 1e-9,
        "reconstruction_residual": numaccretive.FACTOR_TOL,
        "inverse_identity_residual": numaccretive.FACTOR_TOL,
    }
    for name, tol in tolerances.items():
        assert (report.instance[name] > tol) == (name == fault)


def test_a_negative_determinant_is_refuted(monkeypatch):
    # H = [[1, 0], [0, 0]] is singular, so A is accretive but not strictly,
    # and only the residual -det(A) / scale can refute
    acc = numaccretive.accretive(Matrix.from_rows([[1.0, 1.0], [-1.0, 0.0]]))
    assert not acc.strict and numaccretive.verify_det_positive(acc).verified
    real = numaccretive.det_bareiss
    monkeypatch.setattr(numaccretive, "det_bareiss", lambda x: -real(x))
    assert numaccretive.verify_det_positive(acc).status == "refuted"


# A = 2I + N: H = 2I and I + S has a unit diagonal, which A has not
DET_FAULTS = {
    # det(H) doubled: the product formula misses det(A) by a factor of 2
    "product_formula": lambda real: lambda x: real(x) * (2 if x == x.T else 1),
    # det(A) and det(H) negated: det(A) = det(H) det(I + S) still holds
    "sign": lambda real: lambda x: real(x) * (1 if x[0, 0] == 1.0 else -1),
}


@pytest.mark.parametrize("fault", DET_FAULTS)
def test_a_strict_determinant_check_refutes(monkeypatch, fault):
    acc = numaccretive.accretive(Matrix.from_rows([[2.0, 1.0], [-1.0, 2.0]]))
    assert acc.strict and numaccretive.verify_det_positive(acc).verified
    real = numaccretive.det_bareiss
    monkeypatch.setattr(numaccretive, "det_bareiss", DET_FAULTS[fault](real))
    assert numaccretive.verify_det_positive(acc).status == "refuted"

"""The seeded suites split across processes by ``rng.map_trials``: the same
reports byte for byte, the same first error, and no process left behind."""

import json
import os
import signal
import threading

import pytest

from minorcert import cli, identity, numaccretive, rng
from minorcert.identity import bt_suite, johnson_numeric_suite, rankone_suite
from minorcert.numaccretive import accretive_suite
from minorcert.report import UndecidedError


@pytest.fixture(autouse=True)
def _time_bound():
    """Fails a test whose split hangs, in place of hanging the suite."""

    def hung(*_args):
        raise TimeoutError("the split hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _workers(monkeypatch, k, min_trials=0):
    """Splits every map_trials call of the test over k processes."""
    monkeypatch.setattr(rng, "_cpu_count", lambda: k)
    monkeypatch.setattr(rng, "SPLIT_MIN_TRIALS", min_trials)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report_bytes(reports):
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True).encode()


SUITES = {
    "accretive": lambda seed: accretive_suite(8, 30, seed),
    "bt_rat": lambda seed: bt_suite(8, 30, seed, scalar="rat"),
    "bt_real": lambda seed: bt_suite(10, 30, seed, scalar="real"),
    "johnson_numeric": lambda seed: johnson_numeric_suite(12, 30, seed),
    "rankone": lambda seed: rankone_suite(30, seed),
}


@pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_give_the_same_bytes_on_one_two_and_three_workers(monkeypatch, name, seed):
    runs = []
    for k in (1, 2, 3):
        _workers(monkeypatch, k)
        runs.append(_report_bytes(SUITES[name](seed)))
        _no_children()
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("k", [2, 3])
def test_the_split_calls_each_trial_once_and_merges_in_order(monkeypatch, k):
    _workers(monkeypatch, k)
    parent = os.getpid()
    got = rng.map_trials(lambda t: (t, os.getpid()), 40)
    _no_children()
    assert [t for t, _ in got] == list(range(40))
    pids = {pid for _, pid in got}
    assert len(pids) == k and parent in pids
    # interleaved: trial t runs in the process of residue t mod k
    assert all(pid == got[t % k][1] for t, pid in got)
    assert {pid for t, pid in got if t % k == 0} == {parent}


def test_the_split_stays_in_process_when_it_cannot_pay_or_fork(monkeypatch):
    parent = os.getpid()

    def pids(count):
        out = {pid for pid in rng.map_trials(lambda t: os.getpid(), count)}
        _no_children()
        return out

    _workers(monkeypatch, 2, min_trials=rng.SPLIT_MIN_TRIALS)
    assert pids(rng.SPLIT_MIN_TRIALS - 1) == {parent}
    assert len(pids(rng.SPLIT_MIN_TRIALS)) == 2
    _workers(monkeypatch, 1)
    assert pids(50) == {parent}
    _workers(monkeypatch, 2)
    assert pids(1) == {parent}
    assert rng.map_trials(lambda t: t, 0) == []
    # another thread would be copied half-done into the worker
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert pids(50) == {parent}
    finally:
        stop.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    assert pids(50) == {parent}


def test_overflow_is_the_same_undecided_error_on_one_and_two_workers(monkeypatch):
    texts = []
    for k in (1, 2):
        _workers(monkeypatch, k)
        with pytest.raises(UndecidedError) as exc:
            johnson_numeric_suite(250, 3, seed=5)
        _no_children()
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("johnson_numeric_t000 (order 233)")


class TrialFault(Exception):
    pass


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("failing", [(5, 8), (4, 7), (9, 10, 11), (3,), (38,)])
def test_the_lowest_failing_trial_wins(monkeypatch, k, failing):
    _workers(monkeypatch, k)

    def trial(t):
        if t in failing:
            raise TrialFault(f"trial {t}")
        return t

    with pytest.raises(TrialFault, match=f"^trial {min(failing)}$"):
        rng.map_trials(trial, 40)
    _no_children()


def test_an_exception_that_does_not_pickle_keeps_its_text(monkeypatch):
    _workers(monkeypatch, 2)

    class Local(Exception):  # not importable by name, so it cannot unpickle
        pass

    def trial(t):
        if t == 3:
            raise Local("no way back")
        return t

    with pytest.raises(RuntimeError, match="^no way back$"):
        rng.map_trials(trial, 10)
    _no_children()


def _fail_odd_trials_with_no_sweeps(monkeypatch):
    # the odd trials are the ones the worker runs when two processes split
    original = numaccretive._accretive_trial

    def trial(dim, seed, t):
        if t % 2:
            numaccretive.MAX_SWEEPS = 0
        return original(dim, seed, t)

    monkeypatch.setattr(numaccretive, "_accretive_trial", trial)
    monkeypatch.setattr(numaccretive, "MAX_SWEEPS", numaccretive.MAX_SWEEPS)


def test_non_convergence_in_a_worker_exits_2_like_one_process(monkeypatch, capsys):
    argv = ["verify", "accretive", "--dim", "5", "--trials", "12"]
    seen = []
    for k in (1, 2):
        _workers(monkeypatch, k)
        _fail_odd_trials_with_no_sweeps(monkeypatch)
        rc = cli.main(argv)
        _no_children()
        seen.append((rc, capsys.readouterr()))
        monkeypatch.undo()
    (rc1, one), (rc2, two) = seen
    assert rc1 == rc2 == 2
    assert one.out == two.out == ""
    assert one.err == two.err == "error: Jacobi eigensolver did not converge in 0 sweeps\n"


def test_a_worker_killed_by_sigkill_exits_2(monkeypatch, capsys):
    _workers(monkeypatch, 2)
    parent = os.getpid()
    original = numaccretive._accretive_trial

    def trial(dim, seed, t):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(dim, seed, t)

    monkeypatch.setattr(numaccretive, "_accretive_trial", trial)
    rc = cli.main(["verify", "accretive", "--dim", "5", "--trials", "12"])
    _no_children()
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: a trial worker was killed by signal {int(signal.SIGKILL)}\n"


def test_a_parent_that_fails_outside_its_trials_kills_its_workers(monkeypatch):
    _workers(monkeypatch, 3)
    parent = os.getpid()

    def trial(t):
        if os.getpid() == parent and t == 6:
            raise KeyboardInterrupt
        if os.getpid() != parent:
            signal.pause()  # a worker that would never finish on its own
        return t

    with pytest.raises(KeyboardInterrupt):
        rng.map_trials(trial, 12)
    _no_children()


def test_every_suite_maps_its_trials(monkeypatch):
    # every suite hands its trials to map_trials, count and all
    counts = []
    original = rng.map_trials

    def spy(trial, count):
        counts.append(count)
        return original(trial, count)

    for module in (identity, numaccretive):
        monkeypatch.setattr(module, "map_trials", spy)
    accretive_suite(4, 3, 1)
    bt_suite(4, 4, 1)
    johnson_numeric_suite(5, 5, 1)
    rankone_suite(6, 1)
    assert counts == [3, 4, 5, 6]

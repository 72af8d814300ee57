"""The seeded suites and the lemma battery shared out across processes by
``rng.map_trials``: the same reports byte for byte, the same first error,
and no process left behind."""

import errno
import os
import signal
import threading

import pytest

from minorcert import cli, identity, numaccretive, rng
from minorcert.identity import bt_suite, johnson_numeric_suite, lemmas_suite
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


def _workers(monkeypatch, k):
    """Splits every map_trials call of the test over k processes."""
    monkeypatch.setattr(rng, "_cpu_count", lambda: k)


@pytest.fixture
def pipe():
    """A pipe on which the jobs of a worker can tell a job of the parent
    that they ran."""
    r, w = os.pipe()
    yield r, w
    os.close(r)
    os.close(w)


def _read(fd, n):
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError(f"{len(data)} of {n} bytes")
        data += chunk
    return data


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report_bytes(reports):
    return cli._render(reports, "json").encode()


SUITES = {
    "accretive": lambda seed: accretive_suite(8, 30, seed),
    "bt_rat": lambda seed: bt_suite(8, 30, seed, scalar="rat"),
    "bt_real": lambda seed: bt_suite(10, 30, seed, scalar="real"),
    "johnson_numeric": lambda seed: johnson_numeric_suite(12, 30, seed),
    "lemmas": lambda seed: lemmas_suite(7, 30, seed),
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
def test_the_split_calls_each_trial_once_and_merges_in_order(monkeypatch, pipe, k):
    _workers(monkeypatch, k)
    parent = os.getpid()
    r, w = pipe
    count = 40
    held = []

    def job(t):
        if os.getpid() != parent:
            os.write(w, b"x")
        elif t > 0 and not held:
            # the parent runs job 0 right after the fork and holds its next
            # job, if the workers leave it one, until they have run every
            # other one
            held.append(t)
            _read(r, count - 2)
        return t, os.getpid()

    got = rng.map_trials(job, count)
    _no_children()
    assert [t for t, _ in got] == list(range(count))
    ran = {}
    for t, pid in got:
        ran.setdefault(pid, []).append(t)
    assert ran[parent] == [0, *held]
    assert 2 <= len(ran) <= k
    # the workers ran each of the other jobs once: one byte each, no more
    if not held:
        _read(r, count - 1)
    os.set_blocking(r, False)
    with pytest.raises(BlockingIOError):
        os.read(r, 1)


@pytest.mark.parametrize("failing", [(), (25, 35), (12,)])
def test_past_pipe_buf_the_queue_hands_out_chunks(monkeypatch, failing):
    # a 16-byte PIPE_BUF holds 4 records, so 39 queued jobs go out in
    # chunks of 10 (1-10, 11-20, 21-30, 31-39); each process takes whole
    # chunks, and the lowest failing job still wins
    _workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fpathconf", lambda fd, name: 16)

    def job(t):
        if t in failing:
            raise TrialFault(f"trial {t}")
        return t, os.getpid()

    if failing:
        with pytest.raises(TrialFault, match=f"^trial {min(failing)}$"):
            rng.map_trials(job, 40)
        _no_children()
        return
    got = rng.map_trials(job, 40)
    _no_children()
    assert [t for t, _ in got] == list(range(40))
    owner = {t: pid for t, pid in got}
    for lo in (1, 11, 21, 31):
        assert len({owner[t] for t in range(lo, min(lo + 10, 40))}) == 1


def test_more_workers_than_cpus_take_each_job_once(monkeypatch, pipe):
    # six processes race for 599 queued jobs of uneven length; every job
    # the workers ran is written to the pipe, and none may be lost or
    # taken twice
    _workers(monkeypatch, 6)
    parent = os.getpid()
    r, w = pipe
    count = 600

    def job(t):
        sum(range(50 * (t % 7)))
        if os.getpid() != parent:
            os.write(w, t.to_bytes(2, "little"))
        return t, os.getpid()

    got = rng.map_trials(job, count)
    _no_children()
    assert [t for t, _ in got] == list(range(count))
    mine = [t for t, pid in got if pid == parent]
    theirs = _read(r, 2 * (count - len(mine)))
    os.set_blocking(r, False)
    with pytest.raises(BlockingIOError):
        os.read(r, 1)
    ran = mine + [int.from_bytes(theirs[i:i + 2], "little") for i in range(0, len(theirs), 2)]
    assert sorted(ran) == list(range(count))


def test_the_split_stays_in_process_when_it_cannot_pay_or_fork(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def splits(count):
        """The workers that map_trials forks for count jobs."""
        forks.clear()
        assert rng.map_trials(lambda t: t, count) == list(range(count))
        _no_children()
        return len(forks)

    # one worker per other CPU, and no more processes than jobs
    _workers(monkeypatch, 2)
    assert splits(2) == 1
    assert splits(40) == 1
    _workers(monkeypatch, 3)
    assert splits(2) == 1
    assert splits(3) == 2
    _workers(monkeypatch, 1)
    assert splits(50) == 0
    _workers(monkeypatch, 2)
    assert splits(1) == 0
    assert splits(0) == 0
    # another thread would be copied half-done into the worker
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert splits(50) == 0
    finally:
        stop.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert set(rng.map_trials(lambda t: os.getpid(), 50)) == {parent}


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
@pytest.mark.parametrize(
    "failing", [(5, 8), (4, 7), (9, 10, 11), (3,), (38,), (19, 20), (15, 25)]
)
def test_the_lowest_failing_trial_wins(monkeypatch, k, failing):
    _workers(monkeypatch, k)

    def trial(t):
        if t in failing:
            raise TrialFault(f"trial {t}")
        return t

    with pytest.raises(TrialFault, match=f"^trial {min(failing)}$"):
        rng.map_trials(trial, 40)
    _no_children()


def test_the_parent_waits_for_a_worker_on_a_lower_job(monkeypatch):
    # the worker's first job w runs until the parent has failed at w + 1,
    # the job after it, and then fails too: w is the lowest failure
    _workers(monkeypatch, 2)
    parent = os.getpid()
    w_r, w_w = os.pipe()  # w, for the parent
    fail_r, fail_w = os.pipe()  # the parent is about to fail
    first = []

    def trial(t):
        if os.getpid() != parent:
            os.write(w_w, bytes([t]))
            _read(fail_r, 1)
            raise TrialFault(f"trial {t}")
        if t > 0:
            if not first:
                first.append(_read(w_r, 1)[0])
            if t > first[0]:
                os.write(fail_w, b"x")
                raise TrialFault(f"trial {t}")
        return t

    try:
        with pytest.raises(TrialFault) as exc:
            rng.map_trials(trial, 12)
        _no_children()
    finally:
        for fd in (w_r, w_w, fail_r, fail_w):
            os.close(fd)
    assert str(exc.value) == f"trial {first[0]}"


def test_a_worker_killed_below_a_failure_in_the_parent_raises_its_death(monkeypatch):
    # the worker's first job w kills it; the parent, held in job 0 until w
    # has started, fails at its next job, which comes after w: w is the
    # lowest job without a result, lost with the worker
    _workers(monkeypatch, 2)
    parent = os.getpid()
    r, w = os.pipe()  # the worker has started its first job

    def trial(t):
        if os.getpid() != parent:
            os.write(w, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        if t == 0:
            _read(r, 1)
            return t
        raise TrialFault(f"trial {t}")

    try:
        with pytest.raises(RuntimeError, match=f"^a trial worker was killed by signal {int(signal.SIGKILL)}$"):
            rng.map_trials(trial, 12)
        _no_children()
    finally:
        os.close(r)
        os.close(w)


def test_a_failure_in_the_parent_below_a_killed_worker_raises_its_exception(monkeypatch):
    # the worker starts once the parent holds job 1, and is killed in its
    # first job, 2, once the parent is about to fail at 1
    _workers(monkeypatch, 2)
    parent = os.getpid()
    start_r, start_w = os.pipe()  # the parent holds job 1
    held_r, held_w = os.pipe()  # the worker holds its first job
    fail_r, fail_w = os.pipe()  # the parent is about to fail
    fork = os.fork

    def held_fork():
        pid = fork()
        if pid == 0:
            _read(start_r, 1)
        return pid

    monkeypatch.setattr(os, "fork", held_fork)

    def trial(t):
        if os.getpid() != parent:
            os.write(held_w, bytes([t]))
            _read(fail_r, 1)
            os.kill(os.getpid(), signal.SIGKILL)
        if t == 1:
            os.write(start_w, b"x")
            held = _read(held_r, 1)[0]
            os.write(fail_w, b"x")
            raise TrialFault(f"trial {t} below {held}")
        return t

    try:
        with pytest.raises(TrialFault, match="^trial 1 below 2$"):
            rng.map_trials(trial, 12)
        _no_children()
    finally:
        for fd in (start_r, start_w, held_r, held_w, fail_r, fail_w):
            os.close(fd)


@pytest.mark.parametrize("failing", [1, 2])
def test_a_fork_that_fails_leaves_the_jobs_to_the_processes_running(monkeypatch, failing):
    # at a process limit os.fork raises EAGAIN; the split goes on with the
    # workers already forked, or in this process alone
    _workers(monkeypatch, 3)
    forks = []
    fork = os.fork

    def limited_fork():
        forks.append(None)
        if len(forks) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited_fork)
    parent = os.getpid()
    got = rng.map_trials(lambda t: (t * t, os.getpid()), 10)
    _no_children()
    assert len(forks) == failing
    assert [v for v, _ in got] == [t * t for t in range(10)]
    if failing == 1:
        assert {pid for _, pid in got} == {parent}


def test_no_job_starts_after_a_failure(monkeypatch):
    # the worker's first job fails; the parent holds its first job after
    # the fork until the worker has exited, and then finds the queue empty
    _workers(monkeypatch, 2)
    parent = os.getpid()
    r, w = os.pipe()  # end of file once the worker exits
    held = []

    def job(t):
        if os.getpid() != parent:
            raise TrialFault(f"worker {t}")
        if t > 0:
            held.append(t)
            if len(held) == 1:
                os.close(w)
                while os.read(r, 1):
                    pass
        return t

    try:
        with pytest.raises(TrialFault, match="^worker "):
            rng.map_trials(job, 12)
        _no_children()
    finally:
        os.close(r)
        if not held:
            os.close(w)
    assert len(held) <= 1


def test_an_exception_that_does_not_pickle_keeps_its_text(monkeypatch, pipe):
    _workers(monkeypatch, 2)
    parent = os.getpid()
    r, w = pipe
    held = []

    class Local(Exception):  # not importable by name, so it cannot unpickle
        pass

    def trial(t):
        if os.getpid() != parent:  # a worker's job
            os.write(w, b"x")
            raise Local("no way back")
        if t > 0 and not held:  # until the worker has started a job
            held.append(t)
            _read(r, 1)
        return t

    with pytest.raises(RuntimeError, match="^no way back$"):
        rng.map_trials(trial, 10)
    _no_children()


def _fail_second_half_with_no_sweeps(monkeypatch):
    # from trial 6 on, a trial leaves its process no Jacobi sweeps, so the
    # lowest of them fails first, whichever process runs it
    original = numaccretive._accretive_trial

    def trial(dim, seed, t):
        if t >= 6:
            numaccretive.MAX_SWEEPS = 0
        return original(dim, seed, t)

    monkeypatch.setattr(numaccretive, "_accretive_trial", trial)
    monkeypatch.setattr(numaccretive, "MAX_SWEEPS", numaccretive.MAX_SWEEPS)


def test_non_convergence_in_a_worker_exits_2_like_one_process(monkeypatch, capsys):
    argv = ["verify", "accretive", "--dim", "5", "--trials", "12"]
    seen = []
    for k in (1, 2):
        _workers(monkeypatch, k)
        _fail_second_half_with_no_sweeps(monkeypatch)
        rc = cli.main(argv)
        _no_children()
        seen.append((rc, capsys.readouterr()))
        monkeypatch.undo()
    (rc1, one), (rc2, two) = seen
    assert rc1 == rc2 == 2
    assert one.out == two.out == ""
    assert one.err == two.err == "error: Jacobi eigensolver did not converge in 0 sweeps\n"


def test_a_worker_killed_by_sigkill_exits_2(monkeypatch, capsys, pipe):
    _workers(monkeypatch, 2)
    parent = os.getpid()
    r, w = pipe
    held = []
    original = numaccretive._accretive_trial

    def trial(dim, seed, t):
        if os.getpid() != parent:
            os.write(w, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        if t > 0 and not held:  # until the worker has taken a job
            held.append(t)
            _read(r, 1)
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
        if os.getpid() == parent and t > 0:  # its first job after job 0
            raise KeyboardInterrupt
        if os.getpid() != parent:
            signal.pause()  # a worker that would never finish on its own
        return t

    with pytest.raises(KeyboardInterrupt):
        rng.map_trials(trial, 12)
    _no_children()


def test_every_suite_maps_its_trials(monkeypatch):
    # every suite hands its trials to map_trials, count and all, and the
    # lemma battery its claims as well
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
    lemmas_suite(4, 2, 1)  # skew facts and reduced case per m = 3, 2, then 2 trials
    assert counts == [3, 4, 5, 6]


def test_the_lemma_battery_orders_its_jobs_for_the_split(monkeypatch):
    # costliest first, so that the parent, which runs job 0, starts the
    # costliest claim at once: the symbolic claims from the top block order
    # down, then the rank-one trials
    orders = []

    def in_order(job, count):
        reports = [job(k) for k in range(count)]
        orders.append([r.claim for r in reports])
        return reports

    monkeypatch.setattr(identity, "map_trials", in_order)
    lemmas_suite(5, 2, 1)
    lemmas_suite(5, 0, 1)
    symbolic = [
        "skew_facts_m4", "reduced_case_n5", "skew_facts_m3",
        "reduced_case_n4", "skew_facts_m2", "reduced_case_n3",
    ]
    assert orders == [
        [*symbolic, "rankone_expansion_t000", "rankone_expansion_t001"],
        symbolic,
    ]

"""Fault injection: an engine that a verdict reads is patched to return a
wrong result, and the verify command must then exit 1 (refuted) or 2
(error), never 0 ("verified").

A fault that no check catches yet is a strict xfail naming the ROADMAP item
that will catch it, so that the change which does has to flip it."""
import pytest

from minorcert import cli, identity
from minorcert.ring import MultiPoly

SILENT_UNTIL_ITEM_7 = (
    "ROADMAP item 7: no check evaluates the minors a symbolic residual "
    "reads, so this fault still gives 'verified'"
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


def _silent(*commands):
    return [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=SILENT_UNTIL_ITEM_7))
        if name in commands else name
        for name in COMMANDS
    ]


def _exit_status(monkeypatch, capsys, fault, command):
    real = identity.shared_column_minors

    def faulty(a, shared, extra):
        return fault(real(a, shared, extra))

    monkeypatch.setattr(identity, "shared_column_minors", faulty)
    rc = cli.main(COMMANDS[command])
    capsys.readouterr()
    return rc


@pytest.mark.parametrize("command", COMMANDS)
def test_the_unpatched_commands_verify(capsys, command):
    assert cli.main(COMMANDS[command]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", _silent("johnson", "lemmas"))
def test_zero_minors_are_caught(monkeypatch, capsys, command):
    assert _exit_status(monkeypatch, capsys, _zero_minors, command) in (1, 2)


@pytest.mark.parametrize("command", _silent("johnson", "lemmas"))
def test_a_minor_returned_twice_is_caught(monkeypatch, capsys, command):
    assert _exit_status(monkeypatch, capsys, _first_minor_twice, command) in (1, 2)


# johnson's residual d12 + d12(-b) - 2 d11 reads only the even-degree part
# of d12, and d12's leading term at order 6 has degree 5
@pytest.mark.parametrize("command", _silent("johnson"))
def test_a_dropped_leading_term_is_caught(monkeypatch, capsys, command):
    assert _exit_status(monkeypatch, capsys, _later_leading_terms_dropped, command) in (1, 2)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_flipped_sign_is_caught(monkeypatch, capsys, command):
    assert _exit_status(monkeypatch, capsys, _later_signs_flipped, command) in (1, 2)

"""Event and Timeout semantics."""

import pytest

from repro.sim import Event, EventAlreadyTriggeredError, Timeout


def test_event_starts_pending(env):
    event = Event(env)
    assert not event.triggered
    assert not event.processed


def test_succeed_carries_value(env):
    event = Event(env)
    event.succeed("payload")
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == "payload"


def test_fail_carries_exception(env):
    event = Event(env)
    error = ValueError("x")
    event.fail(error)
    seen = []
    # attach a waiter so the failure counts as observed
    event.add_callback(lambda e: seen.append(e.value))
    env.run()
    assert not event.ok
    assert seen == [error]


def test_double_succeed_raises(env):
    event = Event(env)
    event.succeed()
    with pytest.raises(EventAlreadyTriggeredError):
        event.succeed()


def test_fail_after_succeed_raises(env):
    event = Event(env)
    event.succeed()
    with pytest.raises(EventAlreadyTriggeredError):
        event.fail(RuntimeError())


def test_fail_requires_exception(env):
    with pytest.raises(TypeError):
        Event(env).fail("not an exception")


def test_succeed_with_delay(env):
    event = Event(env)
    fired_at = []
    event.add_callback(lambda e: fired_at.append(env.now))
    event.succeed(delay=6.5)
    env.run()
    assert fired_at == [6.5]


def test_callback_on_already_processed_event_fires(env):
    event = Event(env)
    event.succeed("v")
    env.run()
    late = []
    event.add_callback(lambda e: late.append(e.value))
    env.run()
    assert late == ["v"]


def test_timeout_negative_delay_raises(env):
    with pytest.raises(ValueError):
        Timeout(env, -0.1)


def test_timeout_value_passes_through(env):
    def proc(env):
        got = yield env.timeout(1.0, value="tick")
        return got

    process = env.process(proc(env))
    assert env.run_until_event(process) == "tick"


def test_env_factories(env):
    assert isinstance(env.event(), Event)
    assert isinstance(env.timeout(1.0), Timeout)

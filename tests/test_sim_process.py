"""Process semantics: stepping, fork/join, interrupts, error paths."""

import pytest

from repro.sim import Interrupt


def test_process_runs_to_completion(env):
    steps = []

    def proc(env):
        steps.append(env.now)
        yield env.timeout(2.0)
        steps.append(env.now)

    env.process(proc(env))
    env.run()
    assert steps == [0.0, 2.0]


def test_process_return_value_becomes_event_value(env):
    def proc(env):
        yield env.timeout(1.0)
        return 99

    process = env.process(proc(env))
    env.run()
    assert process.value == 99


def test_process_is_alive_lifecycle(env):
    def proc(env):
        yield env.timeout(5.0)

    process = env.process(proc(env))
    assert process.is_alive
    env.run(until=1.0)
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_yield_process_joins_child(env):
    def child(env):
        yield env.timeout(3.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    parent_proc = env.process(parent(env))
    assert env.run_until_event(parent_proc) == (3.0, "done")


def test_non_generator_rejected(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_is_an_error(env):
    def proc(env):
        yield 42

    process = env.process(proc(env))
    with pytest.raises(TypeError):
        env.run_until_event(process)


def test_non_event_error_caught_then_real_event_is_waited_on(env):
    """A generator that catches the TypeError and yields an event keeps
    running: the event it yields from the handler is what it waits on."""
    seen = []

    def proc(env):
        try:
            yield "not an event"
        except TypeError as exc:
            seen.append(str(exc))
            yield env.timeout(2.0)
        return env.now

    process = env.process(proc(env))
    assert env.run_until_event(process) == 2.0
    assert not process.is_alive
    assert "yielded non-event 'not an event'" in seen[0]


def test_uncaught_non_event_error_fails_the_process(env):
    """The TypeError fails the process (waiters see it); it does not
    escape ``Environment.step`` and leave the process marked alive."""
    def proc(env):
        yield 42

    def waiter(env, child):
        try:
            yield child
        except TypeError:
            return "child failed"

    child = env.process(proc(env))
    parent = env.process(waiter(env, child))
    env.run()
    assert not child.is_alive
    assert not child.ok and isinstance(child.value, TypeError)
    assert parent.value == "child failed"


def test_process_failure_propagates_to_waiter(env):
    def child(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "caught"

    parent_proc = env.process(parent(env))
    assert env.run_until_event(parent_proc) == "caught"


def test_unhandled_process_failure_crashes_run(env):
    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_is_catchable(env):
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    victim_proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(5.0)
        victim_proc.interrupt("reason")

    env.process(attacker(env))
    env.run()
    assert log == [(5.0, "reason")]


def test_interrupt_cause_defaults_to_none(env):
    causes = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    victim_proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(1.0)
        victim_proc.interrupt()

    env.process(attacker(env))
    env.run()
    assert causes == [None]


def test_interrupted_process_can_continue(env):
    trail = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            trail.append("interrupted")
        yield env.timeout(2.0)
        trail.append(env.now)

    victim_proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(3.0)
        victim_proc.interrupt()

    env.process(attacker(env))
    env.run()
    assert trail == ["interrupted", 5.0]


def test_interrupt_dead_process_raises(env):
    def proc(env):
        yield env.timeout(1.0)

    process = env.process(proc(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupt_does_not_fire_stale_target(env):
    """After an interrupt, the original waited-on event completing must
    not resume the process a second time."""
    resumed = []

    def victim(env):
        timer = env.timeout(10.0)
        try:
            yield timer
            resumed.append("timer")
        except Interrupt:
            resumed.append("interrupt")
        yield env.timeout(20.0)
        resumed.append("after")

    victim_proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(5.0)
        victim_proc.interrupt()

    env.process(attacker(env))
    env.run()
    assert resumed == ["interrupt", "after"]


def test_process_name_from_generator(env):
    def my_worker(env):
        yield env.timeout(1.0)

    process = env.process(my_worker(env))
    assert "my_worker" in process.name or process.name == "process"
    named = env.process(my_worker(env), name="custom")
    assert named.name == "custom"
    env.run()


def test_two_processes_interleave(env):
    order = []

    def proc(env, tag, delay):
        for _ in range(3):
            yield env.timeout(delay)
            order.append((env.now, tag))

    env.process(proc(env, "a", 2.0))
    env.process(proc(env, "b", 3.0))
    env.run()
    # At t=6 both are due; b's timeout was inserted earlier (at t=3,
    # before a's at t=4), so insertion order puts b first.
    assert order == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"),
                     (6.0, "a"), (9.0, "b")]


def test_active_process_visible_during_step(env):
    observed = []

    def proc(env):
        observed.append(env.active_process)
        yield env.timeout(1.0)

    process = env.process(proc(env))
    env.run()
    assert observed == [process]
    assert env.active_process is None

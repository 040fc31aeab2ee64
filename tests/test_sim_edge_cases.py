"""Kernel edge cases: event bridging, interrupts, store churn."""


from repro.sim import Environment, Event, Interrupt, Store


def test_process_yield_on_processed_event(env):
    early = env.timeout(1.0, value="early")

    def late_waiter(env):
        yield env.timeout(5.0)
        value = yield early  # already processed: resume immediately
        return (env.now, value)

    process = env.process(late_waiter(env))
    assert env.run_until_event(process) == (5.0, "early")


def test_interrupt_while_waiting_on_store(env):
    store = Store(env)
    outcome = []

    def consumer(env):
        try:
            yield store.get()
        except Interrupt:
            outcome.append("interrupted")

    process = env.process(consumer(env))

    def attacker(env):
        yield env.timeout(1.0)
        process.interrupt()

    env.process(attacker(env))
    env.run()
    assert outcome == ["interrupted"]
    # the dangling getter remains queued; a later put satisfies it
    store.put("x")
    assert store.items == () or store.items == ("x",)


def test_event_value_before_trigger_is_none(env):
    event = Event(env)
    assert event.value is None
    assert event.ok  # default until told otherwise


def test_environment_initial_time_affects_timeouts():
    env = Environment(initial_time=100.0)
    fired = []
    env.timeout(5.0).add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == [105.0]


def test_deep_process_chain(env):
    def leaf(env):
        yield env.timeout(1.0)
        return 1

    def node(env, depth):
        if depth == 0:
            value = yield env.process(leaf(env))
        else:
            value = yield env.process(node(env, depth - 1))
        return value + 1

    process = env.process(node(env, 20))
    assert env.run_until_event(process) == 22

"""Randomized equivalence checks on generated SANs.

Two independent checks:

* solver vs simulator: small random all-exponential SANs (random
  ring-and-chord topologies with random rates) are solved exactly
  through the state-space CTMC solver, and the discrete-event
  simulator must reproduce the steady-state occupancies;
* incremental vs full kernel: small random SANs with gates, writes,
  instantaneous chains, multi-case activities, ``resample_on`` clocks
  and every reward kind must give bit-identical trajectories, rewards
  and errors on both kernels.

Both hunt for disagreements far beyond the hand-written models.
"""

import random

import numpy as np
import pytest

from repro.obs.trace import MemorySink
from repro.san import (
    Arc,
    Case,
    Deterministic,
    Exponential,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    RewardVariable,
    SANModel,
    SimulationError,
    Simulator,
    StateSpaceGenerator,
    StreamRegistry,
    TimedActivity,
)


def random_san(seed: int):
    """A random strongly-connected token-cycling SAN.

    One token circulates over `n` places along a ring (guaranteeing
    irreducibility) plus random chords, every transition exponential
    with a random rate.
    """
    rng = StreamRegistry(seed).get("test/random-san")
    n = int(rng.integers(3, 7))
    model = SANModel(f"random_{seed}")
    places = [model.add_place(f"s{i}", initial=1 if i == 0 else 0) for i in range(n)]

    def add(name, source, target):
        rate = float(rng.uniform(0.2, 5.0))
        model.add_activity(
            TimedActivity(
                name,
                Exponential(rate),
                input_arcs=[Arc(places[source])],
                cases=[Case(output_arcs=[Arc(places[target])])],
            )
        )

    for i in range(n):
        add(f"ring_{i}", i, (i + 1) % n)
    for chord in range(int(rng.integers(0, 4))):
        source = int(rng.integers(0, n))
        target = int(rng.integers(0, n))
        if target != source:
            add(f"chord_{chord}", source, target)
    return model, n


@pytest.mark.parametrize("seed", range(12))
def test_simulator_matches_exact_steady_state(seed):
    model, n = random_san(seed)
    exact = StateSpaceGenerator(model).generate().steady_state()
    expected = [
        exact.probability_of(lambda m, i=i: m[f"s{i}"] == 1) for i in range(n)
    ]

    model.reset()
    rewards = [
        RewardVariable(f"s{i}", rate=lambda s, i=i: float(s.tokens(f"s{i}")))
        for i in range(n)
    ]
    output = Simulator(model, streams=seed + 1000).run(
        until=40_000.0, warmup=100.0, rewards=rewards
    )
    for i in range(n):
        measured = output.time_average(f"s{i}")
        assert measured == pytest.approx(expected[i], abs=0.02), (
            f"seed {seed}, place s{i}: exact {expected[i]:.4f} vs "
            f"simulated {measured:.4f}"
        )


@pytest.mark.parametrize("seed", range(6))
def test_transient_matches_simulation_mean(seed):
    """The uniformization transient solution must match the empirical
    state distribution at a finite time."""
    from repro.san import TransientSolver

    model, n = random_san(seed)
    space = StateSpaceGenerator(model).generate()
    t = 1.5
    expected = TransientSolver(space).solve(t)
    target = f"s{n - 1}"
    p_expected = expected.probability_of(lambda m: m[target] == 1)

    hits = 0
    trials = 1500
    for replication in range(trials):
        model.reset()
        simulator = Simulator(model, streams=seed * 10_000 + replication)
        simulator.run(until=t)
        hits += 1 if model.place(target).tokens else 0
    p_measured = hits / trials
    # Binomial noise: 3 sigma of sqrt(p(1-p)/n) ~ 0.04 at worst.
    assert p_measured == pytest.approx(p_expected, abs=0.05)


def random_gated_san(seed: int):
    """A small random SAN with what the token rings lack.

    Input gates with declared and undeclared ``reads`` (a declared list
    is always complete), input-gate functions and output gates that
    write places, prioritised instantaneous activities, two-case
    activities with static or marking-dependent probabilities,
    marking-dependent rates with and without ``resample_on``, zero
    delays, and rate rewards with and without ``reads=`` plus an
    impulse reward. Some of the models livelock.
    """
    rng = random.Random(seed)
    model = SANModel(f"gated_{seed}")
    names = [f"p{i}" for i in range(rng.randint(2, 5))]
    for name in names:
        model.add_place(name, initial=rng.randint(0, 3))

    def arcs(low, high):
        chosen = rng.sample(names, rng.randint(low, min(high, len(names))))
        return [
            Arc(model.place(name), weight=rng.choice([1, 1, 1, 2]))
            for name in chosen
        ]

    def writer():
        target = rng.choice(names)
        return rng.choice(
            [
                lambda s: s.place(target).add(1),
                lambda s: s.place(target).clear(),
                lambda s: s.place(target).set(1),
            ]
        )

    def input_gates(tag):
        gates = []
        for g in range(rng.randint(0, 2)):
            read = rng.sample(names, rng.randint(1, 2))
            bound = rng.randint(1, 4)
            gates.append(
                InputGate(
                    f"{tag}_in{g}",
                    predicate=lambda s, read=read, bound=bound: (
                        sum(s.tokens(name) for name in read) < bound
                    ),
                    function=writer() if rng.random() < 0.4 else (lambda s: None),
                    reads=read if rng.random() < 0.7 else None,
                )
            )
        return gates

    def cases(tag):
        outcomes = [
            Case(
                output_arcs=arcs(1, 2),
                output_gates=(
                    [OutputGate(f"{tag}_out{c}", writer())]
                    if rng.random() < 0.4
                    else []
                ),
            )
            for c in range(rng.choice([1, 1, 2]))
        ]
        if len(outcomes) == 1:
            return {"cases": outcomes}
        if rng.random() < 0.5:
            return {"cases": outcomes, "case_probabilities": [0.3, 0.7]}
        name = rng.choice(names)
        return {
            "cases": outcomes,
            "case_probabilities": (
                lambda s: [0.2, 0.8] if s.tokens(name) else [0.6, 0.4]
            ),
        }

    for t in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        watched = []
        if kind == 0:
            distribution = Exponential(rng.uniform(0.2, 3.0))
        elif kind == 1:
            name = rng.choice(names)
            distribution = Exponential(
                lambda s, name=name: 0.5 + min(s.tokens(name), 3)
            )
            if rng.random() < 0.5:
                watched = [name]
        else:
            distribution = Deterministic(rng.choice([0.0, 0.5, 1.0, 2.5]))
        model.add_activity(
            TimedActivity(
                f"t{t}",
                distribution,
                input_arcs=arcs(0, 1),
                input_gates=input_gates(f"t{t}"),
                resample_on=watched,
                **cases(f"t{t}"),
            )
        )
    for i in range(rng.randint(0, 3)):
        model.add_activity(
            InstantaneousActivity(
                f"i{i}",
                input_arcs=arcs(1, 2),
                input_gates=input_gates(f"i{i}"),
                priority=rng.randint(0, 2),
                **cases(f"i{i}"),
            )
        )

    declared = rng.choice(names)
    a, b = rng.choice(names), rng.choice(names)
    rewarded = rng.choice(model.activities).name
    rewards = [
        RewardVariable(
            "declared",
            rate=lambda s: float(s.tokens(declared)),
            reads=[declared],
        ),
        RewardVariable("undeclared", rate=lambda s: float(s.tokens(a) * s.tokens(b))),
        RewardVariable("impulse", impulses={rewarded: lambda s, case: 1.0 + case}),
    ]
    return model, rewards


def _run_kernel(seed: int, kernel: str, spans):
    """Trace, per-call results (or the error) of one generated model."""
    model, rewards = random_gated_san(seed)
    sink = MemorySink()
    simulator = Simulator(
        model,
        streams=seed,
        sink=sink,
        kernel=kernel,
        max_instantaneous_chain=50,
        max_events_per_instant=50,
    )
    results, stats = [], []
    try:
        for until in spans:
            out = simulator.run(until=until, warmup=2.0, rewards=rewards)
            results.append(
                (
                    out.final_time,
                    out.event_count,
                    out.firings,
                    {name: r.accumulated for name, r in out.rewards.items()},
                )
            )
            stats.append(out.kernel_stats)
    except SimulationError as exc:
        results.append((type(exc).__name__, str(exc)))
    trace = [(event.time, event.name, event.fields["case"]) for event in sink.events]
    return trace, results, stats


#: A whole run, and the same span continued by a second run() call.
RUN_MODES = {"one-call": (30.0,), "two-calls": (12.0, 30.0)}
#: Generated models per test case.
MODELS_PER_CASE = 50


@pytest.mark.parametrize("mode", sorted(RUN_MODES))
@pytest.mark.parametrize("block", range(8))
def test_random_models_identical_on_both_kernels(block, mode):
    spans = RUN_MODES[mode]
    for seed in range(block * MODELS_PER_CASE, (block + 1) * MODELS_PER_CASE):
        inc_trace, inc_results, inc_stats = _run_kernel(seed, "incremental", spans)
        full_trace, full_results, full_stats = _run_kernel(seed, "full", spans)
        assert inc_trace == full_trace, f"seed {seed}"
        assert inc_results == full_results, f"seed {seed}"
        for inc, full in zip(inc_stats, full_stats):
            assert inc.enabled_checks + inc.enabled_checks_skipped == (
                full.enabled_checks
            ), f"seed {seed}"
            assert inc.enabled_checks_skipped >= 0, f"seed {seed}"
            assert full.enabled_checks_skipped == 0, f"seed {seed}"


def test_random_models_cover_livelocks_and_completed_runs():
    """Guard the generator against drifting into one regime: among the
    first models, some runs must livelock and some must complete."""
    outcomes = [
        _run_kernel(seed, "incremental", RUN_MODES["two-calls"])[1][-1][0]
        for seed in range(MODELS_PER_CASE)
    ]
    assert "LivelockError" in outcomes
    assert any(isinstance(outcome, float) for outcome in outcomes)

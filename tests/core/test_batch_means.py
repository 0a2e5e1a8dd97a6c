"""Run continuation: a second ``Simulator.run`` call continues the
same trajectory. (The single-run batch-means estimator these tests
were written beside is gone; the continuation it relied on stays.)"""

import pytest

from repro.san import (
    Arc,
    Case,
    Deterministic,
    RewardVariable,
    SANModel,
    Simulator,
    TimedActivity,
)
from repro.san.errors import SimulationError


class TestRunContinuation:
    def make_clock(self):
        model = SANModel("clock")
        a = model.add_place("a", initial=1)
        b = model.add_place("b")
        model.add_activity(
            TimedActivity("go", Deterministic(1.0), input_arcs=[Arc(a)],
                          cases=[Case(output_arcs=[Arc(b)])])
        )
        model.add_activity(
            TimedActivity("back", Deterministic(1.0), input_arcs=[Arc(b)],
                          cases=[Case(output_arcs=[Arc(a)])])
        )
        return model

    def test_continuation_preserves_trajectory(self):
        reward = RewardVariable("in_a", rate=lambda s: float(s.tokens("a")))
        # One run to t=10 vs two runs 0->6->10 must accumulate equally.
        single = Simulator(self.make_clock()).run(until=10.0, rewards=[reward])
        split = Simulator(self.make_clock())
        first = split.run(until=6.0, rewards=[reward])
        second = split.run(until=10.0, rewards=[reward])
        assert first.rewards["in_a"].accumulated + second.rewards[
            "in_a"
        ].accumulated == pytest.approx(single.rewards["in_a"].accumulated)

    def test_window_observation_time(self):
        simulator = Simulator(self.make_clock())
        reward = RewardVariable("in_a", rate=lambda s: float(s.tokens("a")))
        simulator.run(until=6.0, rewards=[reward])
        window = simulator.run(until=10.0, rewards=[reward])
        assert window.rewards["in_a"].observation_time == pytest.approx(4.0)
        assert window.time_average("in_a") == pytest.approx(0.5)

    def test_deterministic_clock_not_reset_across_windows(self):
        # A pending clock (event at t=7) must survive a window boundary
        # at t=6.5 unchanged.
        from repro.obs.trace import MemorySink

        sink = MemorySink()
        simulator = Simulator(self.make_clock(), sink=sink)
        simulator.run(until=6.5)
        simulator.run(until=8.5)
        times = [event.time for event in sink.events]
        assert times == pytest.approx([1, 2, 3, 4, 5, 6, 7, 8])

    def test_rewind_rejected(self):
        simulator = Simulator(self.make_clock())
        simulator.run(until=5.0)
        with pytest.raises(SimulationError):
            simulator.run(until=5.0)
        with pytest.raises(SimulationError):
            simulator.run(until=3.0)

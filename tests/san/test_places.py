"""Tests for repro.san.places."""

import pytest

from repro.san import Place
from repro.san.errors import ModelDefinitionError, SimulationError


class TestPlace:
    def test_initial_marking(self):
        assert Place("p", initial=3).tokens == 3

    def test_default_empty(self):
        place = Place("p")
        assert place.tokens == 0
        assert place.empty
        assert not place

    def test_add_remove(self):
        place = Place("p")
        place.add(2)
        place.remove(1)
        assert place.tokens == 1
        assert bool(place)

    def test_underflow_raises(self):
        place = Place("p", initial=1)
        with pytest.raises(SimulationError):
            place.remove(2)

    def test_negative_add_raises(self):
        with pytest.raises(SimulationError):
            Place("p").add(-1)

    def test_negative_remove_raises(self):
        with pytest.raises(SimulationError):
            Place("p").remove(-1)

    def test_set_and_clear(self):
        place = Place("p")
        place.set(5)
        assert place.tokens == 5
        place.clear()
        assert place.tokens == 0

    def test_set_negative_raises(self):
        with pytest.raises(SimulationError):
            Place("p").set(-1)

    def test_version_bumps_on_change_only(self):
        place = Place("p", initial=1)
        version = place.version
        place.set(1)  # no change
        assert place.version == version
        place.set(2)
        assert place.version == version + 1
        place.add(0)  # no-op
        assert place.version == version + 1

    def test_reset(self):
        place = Place("p", initial=2)
        place.set(9)
        place.reset()
        assert place.tokens == 2

    def test_invalid_construction(self):
        with pytest.raises(ModelDefinitionError):
            Place("")
        with pytest.raises(ModelDefinitionError):
            Place("p", initial=-1)

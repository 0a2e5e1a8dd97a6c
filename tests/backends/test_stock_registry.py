"""The stock backends are built on their first lookup.

Listing the ids builds nothing, so a process that runs only the
simulation never imports the cluster simulator, the closed forms or
the CTMC solvers. The registry contract is otherwise what it was when
every stock backend was built at import: five ids are listed,
:func:`all_backends` builds them all, registering a stock id is an
error and unregistering one removes it, built or not. Each check runs
in a fresh interpreter, so nothing is built before it starts.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

STOCK = ["analytical", "cluster", "ctmc", "san-sim", "san-sim-full"]

#: The modules that building each stock backend imports.
BACKEND_MODULES = (
    "repro.backends.san_sim",
    "repro.backends.ctmc",
    "repro.backends.cluster",
    "repro.backends.analytical",
    "repro.cluster",
    "repro.analytical",
)

PRELUDE = f"""
import sys
from repro.backends import (
    BackendCapabilities, UnknownBackendError, all_backends, backend_ids,
    get_backend, register, unregister,
)

STOCK = {STOCK!r}

def loaded():
    return [m for m in {BACKEND_MODULES!r} if m in sys.modules]

class Fake:
    backend_version = 1
    capabilities = BackendCapabilities(metrics=frozenset())

    def __init__(self, id):
        self.id = id
"""


def _run(body: str) -> None:
    """Run the prelude and ``body`` in a fresh interpreter; fail with
    its stderr if an assertion in it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_listing_the_ids_builds_nothing():
    _run("""
        assert backend_ids() == STOCK
        assert loaded() == [], loaded()
    """)


def test_a_lookup_builds_that_backend_once():
    _run("""
        backend = get_backend("san-sim")
        assert backend.id == "san-sim"
        assert get_backend("san-sim") is backend
        assert loaded() == ["repro.backends.san_sim"], loaded()
        assert get_backend("san-sim-full").kernel == "full"
        assert backend_ids() == STOCK
    """)


def test_all_backends_builds_every_stock_backend():
    _run("""
        assert [backend.id for backend in all_backends()] == STOCK
        assert loaded() == [
            "repro.backends.san_sim", "repro.backends.ctmc",
            "repro.backends.cluster", "repro.backends.analytical",
            "repro.cluster", "repro.analytical",
        ], loaded()
    """)


def test_registering_a_stock_id_is_an_error_built_or_not():
    _run("""
        for name in ("cluster", "san-sim"):
            if name == "san-sim":
                get_backend(name)
            try:
                register(Fake(name))
            except ValueError as exc:
                assert "already registered" in str(exc)
            else:
                raise AssertionError(f"registered a second {name!r}")
        assert "repro.cluster" not in sys.modules
    """)


def test_unregistering_a_stock_id_removes_it_built_or_not():
    _run("""
        get_backend("ctmc")
        unregister("ctmc")
        unregister("cluster")
        assert backend_ids() == ["analytical", "san-sim", "san-sim-full"]
        for name in ("ctmc", "cluster"):
            try:
                get_backend(name)
            except UnknownBackendError as exc:
                assert "analytical, san-sim, san-sim-full" in str(exc)
            else:
                raise AssertionError(f"{name!r} is still registered")
        assert "repro.cluster" not in sys.modules
        assert register(Fake("cluster")) is get_backend("cluster")
    """)


def test_unknown_id_lists_the_unbuilt_stock_ids():
    _run("""
        try:
            get_backend("moebius")
        except UnknownBackendError as exc:
            assert str(exc).endswith(", ".join(STOCK)), str(exc)
        else:
            raise AssertionError("an unknown id resolved")
        assert loaded() == [], loaded()
    """)

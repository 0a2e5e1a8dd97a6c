"""Public-API surface tests: imports, __all__ hygiene, docstrings.

A downstream user's first contact with the library is its import
surface; these tests keep it coherent: every name exported via
``__all__`` exists, and every public module, class and function is
documented.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.san",
    "repro.core",
    "repro.core.submodels",
    "repro.analytical",
    "repro.cluster",
    "repro.failures",
    "repro.backends",
    "repro.exec",
    "repro.experiments",
]

MODULES = [
    "repro.san.activities",
    "repro.san.distributions",
    "repro.san.gates",
    "repro.san.model",
    "repro.san.places",
    "repro.san.rewards",
    "repro.san.rng",
    "repro.san.simulator",
    "repro.san.statespace",
    "repro.san.statistics",
    "repro.san.transient",
    "repro.san.dot",
    "repro.core.completion",
    "repro.core.ledger",
    "repro.core.parameters",
    "repro.core.simulation",
    "repro.core.system",
    "repro.analytical.coordination",
    "repro.analytical.daly",
    "repro.analytical.design",
    "repro.analytical.sensitivity",
    "repro.analytical.markov",
    "repro.analytical.useful_work",
    "repro.analytical.young",
    "repro.cluster.engine",
    "repro.cluster.filesystem",
    "repro.cluster.network",
    "repro.cluster.nodes",
    "repro.cluster.protocol",
    "repro.cluster.simulator",
    "repro.failures.correlation",
    "repro.failures.processes",
    "repro.failures.traces",
    "repro.backends.base",
    "repro.backends.registry",
    "repro.backends.san_sim",
    "repro.backends.ctmc",
    "repro.backends.cluster",
    "repro.backends.analytical",
    "repro.backends.cache",
    "repro.exec.task",
    "repro.exec.base",
    "repro.exec.serial",
    "repro.exec.pool",
    "repro.exec.queue",
    "repro.experiments.archive",
    "repro.experiments.chaos",
    "repro.experiments.cli",
    "repro.experiments.config",
    "repro.experiments.figures",
    "repro.experiments.paper_claims",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.specs",
    "repro.experiments.validation",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", []):
        assert hasattr(module, exported), f"{name}.__all__ lists missing {exported!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    # inspect.getdoc walks the MRO: an override of a
                    # documented interface method counts as documented.
                    assert inspect.getdoc(getattr(obj, method_name)), (
                        f"{name}.{symbol}.{method_name} lacks a docstring"
                    )


def test_version_consistent():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(part.isdigit() for part in parts)


def test_top_level_exports():
    import repro

    assert callable(repro.simulate)
    assert repro.ModelParameters().n_processors == 65536

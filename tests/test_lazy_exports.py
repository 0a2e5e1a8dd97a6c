"""Packages that export some names lazily (:mod:`repro._lazy`).

A lazily exported name resolves to the same object as the submodule's
own, is stored in the package namespace on first access, and is listed
by ``dir()`` like every other name in the package's ``__all__``.
"""

import importlib

import pytest

LAZY = {
    "repro.core": {"completion_study": "repro.core.completion"},
    "repro.san": {
        "to_dot": "repro.san.dot",
        "StateSpaceGenerator": "repro.san.statespace",
        "TransientSolver": "repro.san.transient",
    },
    "repro.backends": {
        "SanSimulationBackend": "repro.backends.san_sim",
        "CTMCBackend": "repro.backends.ctmc",
        "ClusterBackend": "repro.backends.cluster",
        "AnalyticalBackend": "repro.backends.analytical",
    },
    "repro.exec": {
        "PoolExecutor": "repro.exec.pool",
        "shutdown_pool": "repro.exec.pool",
    },
    "repro.experiments": {
        "run_chaos": "repro.experiments.chaos",
        "BackendFaultPlan": "repro.experiments.faultinject",
    },
}


@pytest.mark.parametrize("package", sorted(LAZY))
def test_dir_lists_every_exported_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize(
    "package, name",
    [(package, name) for package, names in sorted(LAZY.items())
     for name in names],
)
def test_lazy_name_is_the_submodule_object_and_is_kept(package, name):
    module = importlib.import_module(package)
    value = getattr(module, name)
    assert value is getattr(importlib.import_module(LAZY[package][name]), name)
    assert vars(module)[name] is value
    assert name in module.__all__


@pytest.mark.parametrize("package", sorted(LAZY))
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no "
                       "attribute 'no_such_name'"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


def test_from_import_reaches_a_submodule_and_a_lazy_name():
    from repro.experiments import faultinject, run_chaos

    assert faultinject.BackendFaultPlan.__module__ == faultinject.__name__
    assert run_chaos.__module__ == "repro.experiments.chaos"

"""repro — worker-centric scheduling for data-intensive grid applications.

A from-scratch reproduction of Ko, Morales & Gupta, *"New Worker-Centric
Scheduling Strategies for Data-Intensive Grid Applications"* (Middleware
2007), including every substrate the paper runs on:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.net` — flow-level network with max-min fair sharing and a
  Tiers-style hierarchical topology generator.
* :mod:`repro.grid` — sites, workers, data servers, global file server.
* :mod:`repro.workload` — synthetic Coadd workload plus generic
  Bag-of-Tasks generators.
* :mod:`repro.core` — the paper's worker-centric scheduling strategies and
  the task-centric storage-affinity baseline.
* :mod:`repro.exp` — experiment harness reproducing every table and
  figure of the paper's evaluation.
* :mod:`repro.analysis` — metrics, traces, and comparison helpers.

Quickstart::

    from repro import run_experiment, ExperimentConfig

    result = run_experiment(ExperimentConfig(scheduler="combined.2",
                                             num_tasks=500, seed=1))
    print(result.makespan, result.file_transfers)
"""

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "run_experiment", "run_averaged", "__version__"]

# Lazy attribute access (PEP 562): keeps `import repro` light and avoids
# importing the whole experiment stack for users who only want the kernel.
_LAZY = {
    "ExperimentConfig": ("repro.exp.config", "ExperimentConfig"),
    "run_experiment": ("repro.exp.runner", "run_experiment"),
    "run_averaged": ("repro.exp.runner", "run_averaged"),
}


def _lazy_exports(namespace):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    re-exports are its ``_LAZY`` table, ``{name: (module, attribute)}``.

    A name is imported on first access and then cached in the package,
    so importing a package costs only its own ``__init__``: the daemon
    loads the modules it serves with and none of their siblings.
    """
    import importlib

    package = namespace["__name__"]
    table = namespace["_LAZY"]

    def __getattr__(name):
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module_name), attr)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals())

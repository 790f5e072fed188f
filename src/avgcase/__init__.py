"""avgcase: average-case reductions from planted graph problems to sparse
Gaussian mixtures, semirandom community recovery and universal sparse-mixture
families, together with the statistical harness that verifies every
distributional contract those reductions are supposed to satisfy.

Submodules
----------
prob       seeded streams, the pool policy, the normal CDF
graphs     graph types, planted samplers, adversaries, GRAPHv1 I/O
geometry   incidence rotation matrices from hyperplanes of F_r^t
kernels    rejection kernels (Gaussian, entrywise, symmetric 3-ary)
pipelines  the end-to-end reductions and one parameter planner per target
verify     exact/empirical distances, closed-form bounds, the exact
           low-degree energy, reduction verification batteries
formats    AMATv1 matrices and canonical JSON documents
cli        the ``avgcase`` command-line front end
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "formats", "geometry", "graphs", "kernels", "pipelines",
               "prob", "verify")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    # Submodules load on first access (PEP 562), so a command imports only
    # what it runs: no ``reduce`` ever loads verify or scipy.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

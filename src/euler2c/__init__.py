"""Convexity analysis of the planar Euler problem of two fixed centers.

The package computes, certifies, and falsifies convexity of the
regularized energy hypersurfaces and of the Hill regions below the
critical Jacobi energy:

- ``ladder``: the mass-ratio constants (ProblemParams with its mass swap,
  which reads every Moon lobe as the swapped problem's Earth lobe; the
  lobe names) and the threshold ladder c_E'' <= c0 <= c_J with the
  theory verdict, in Python floats and exact fractions, without NumPy.
- ``model``: the potential U and its derivative table, and the Earth's
  Hill lobe in closed form: its boundary, the positions that the oracles
  read and the least value of a quantity of U's table over them;
  re-exports the constants of ``ladder``.
- ``elliptic``: two-sheeted elliptic regularization, the closed-form
  spectrum of the projected Hessian of the regularized energy, the
  scanning oracle; re-exports the thresholds and the theory verdict of
  ``ladder``.
- ``levicivita``: Levi-Civita regularization around one primary,
  boundary-convexity function F, tangency and inflection analysis.
- ``fiberwise``: curvature of Hill-region boundaries and the fiberwise
  verdict over the Earth Hill region, with the equal-mass polar
  polynomials.
- ``formulas``: the polynomials the program evaluates and the identity
  suite certifies, one body each for floats, arrays and exact polynomials.
- ``exactpoly``: exact rational polynomial arithmetic, Sturm-based sign
  certificates, and the named identity suite behind the proofs.
- ``scan``: the level-set curvature numerator behind C and F and its
  gradient, read from one partials table, with the callback that traces
  its zero set; sign scans and implicit-curve tracing from a closed-form
  value and gradient.
- ``cli``: the ``euler2c`` command.

The package loads lazily (PEP 562): ``import euler2c`` imports no
submodule and not NumPy. Each public name below is imported from its
submodule on first access and then kept, and ``euler2c.<submodule>``
imports that submodule, so a process loads only the code it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it, in __all__ order
_SOURCE = {
    "Euler2CError": "errors", "CollisionPoint": "errors",
    "EnergyAboveCritical": "errors",
    "TraceFailure": "errors", "VariableMismatch": "errors",
    "HillComponent": "ladder", "ProblemParams": "ladder",
    "potential_U": "model", "hill_boundary": "model",
    "Verdict": "ladder", "Thresholds": "ladder", "thresholds": "ladder",
    "convexity_verdict": "ladder", "oracle_convexity": "elliptic",
    "F_value": "levicivita", "x0_of": "levicivita",
    "tangency_check": "levicivita",
    "nonconvex_witness_levi": "levicivita",
    "FiberwiseReport": "fiberwise",
    "U_partials": "model", "curvature_numerator": "fiberwise",
    "fiberwise_verdict": "fiberwise",
    "positivity_certificates": "fiberwise",
    "MultiPoly": "exactpoly", "ring": "exactpoly",
    "sturm_isolate": "exactpoly", "sign_certificate": "exactpoly",
    "identity_names": "exactpoly", "verify_identity": "exactpoly",
    "verify_all": "exactpoly",
    "ScanReport": "scan", "Polyline": "scan", "sign_scan": "scan",
    "trace_implicit": "scan",
}
_SUBMODULES = frozenset({"cli", "elliptic", "errors", "exactpoly",
                         "fiberwise", "formulas", "ladder", "levicivita",
                         "model", "scan"})

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule as an attribute of the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

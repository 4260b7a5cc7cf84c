"""Verification laboratory for information derivatives in Gaussian noise.

The package computes mutual information for finite-support inputs
observed through independent Gaussian channels at per-channel snr,
expands its mixed snr-derivatives as exact partition sums over diverse
partitions of doubled index multisets, and cross-checks every identity
numerically (high-order finite differences) and exactly (rational
arithmetic) through scripted verification suites.

Layout (the numeric modules, marked *, need numpy and are loaded on
first use: importing the package loads only the exact half):
  partitions  diverse partitions, built by one slot programme
  graphs      loop-free multigraph duals and DOT export
  forms       exact symbolic expansions, moment oracles, cumulants
  fd          exact-weight finite differences with Richardson control
  channel*    quadrature and the one posterior pass behind mutual
              information (one snr row or a batch), mmse and
              conditional forms
  closedform* two-point closed forms and seeded rational generators
  verify*     comparison suites and deterministic reports
  cli         the `mideriv` command; only `mi`, numeric `tau` and
              `verify` load the numeric modules
"""
import importlib

from .errors import DomainError, QuadratureUnderflowError, SizeLimitError, ValidationError
from .fd import fd_partial, fornberg_weights, stencil_halfwidth
from .forms import (
    MomentOracle,
    SlotBinding,
    SymbolicExpansion,
    atoms_moment_oracle,
    gaussian_moment_oracle,
    kappa_eval,
    kappa_recursion_oracle,
    kappa_symbolic,
    tau_eval,
    tau_symbolic,
    univariate_moment_oracle,
)
from .graphs import LabeledMultigraph, export_dot, graph_to_partition, partition_to_graph
from .partitions import Partition, enumerate_diverse, set_partitions

# The names the numeric modules export, by module: each resolves on first
# access (PEP 562), and the numeric modules themselves do too, as package
# attributes.
_NUMERIC = {
    "channel": (
        "ChannelSpec",
        "DiscreteJoint",
        "QuadratureRule",
        "expected_conditional_tau",
        "gauss_hermite",
        "mmse",
        "mutual_information",
        "mutual_information_many",
    ),
    "closedform": (),
    "verify": (
        "CaseRecord",
        "DerivativeCase",
        "DerivativeRequest",
        "VerificationReport",
        "adjudicate_first_derivative",
        "run_suite",
        "verify_all",
        "verify_cumulant_routes",
        "verify_derivatives",
        "verify_gaussian_chain",
        "verify_multiquadratic",
        "verify_snr_combining",
    ),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in names}


def __getattr__(name: str):
    if name in _NUMERIC:
        # importing a submodule binds it as a package attribute
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMERIC, *_HOME})


__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "DiscreteJoint",
    "QuadratureRule",
    "expected_conditional_tau",
    "gauss_hermite",
    "mmse",
    "mutual_information",
    "mutual_information_many",
    "DomainError",
    "QuadratureUnderflowError",
    "SizeLimitError",
    "ValidationError",
    "fd_partial",
    "fornberg_weights",
    "stencil_halfwidth",
    "MomentOracle",
    "SlotBinding",
    "SymbolicExpansion",
    "atoms_moment_oracle",
    "gaussian_moment_oracle",
    "kappa_eval",
    "kappa_recursion_oracle",
    "kappa_symbolic",
    "tau_eval",
    "tau_symbolic",
    "univariate_moment_oracle",
    "LabeledMultigraph",
    "export_dot",
    "graph_to_partition",
    "partition_to_graph",
    "Partition",
    "enumerate_diverse",
    "set_partitions",
    "CaseRecord",
    "DerivativeCase",
    "DerivativeRequest",
    "VerificationReport",
    "adjudicate_first_derivative",
    "run_suite",
    "verify_all",
    "verify_cumulant_routes",
    "verify_derivatives",
    "verify_gaussian_chain",
    "verify_multiquadratic",
    "verify_snr_combining",
    "__version__",
]

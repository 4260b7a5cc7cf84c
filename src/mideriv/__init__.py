"""Verification laboratory for information derivatives in Gaussian noise.

The package computes mutual information for finite-support inputs
observed through independent Gaussian channels at per-channel snr,
expands its mixed snr-derivatives as exact partition sums over diverse
partitions of doubled index multisets, and cross-checks every identity
numerically (high-order finite differences) and exactly (rational
arithmetic) through scripted verification suites.

Layout (importing the package loads none of these modules: each public
name, and each module but cli, loads on first access; the numeric
modules, marked *, need numpy):
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

__version__ = "0.1.0"

# The public names, by the module that holds them (PEP 562).
_EXPORTS = {
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
    "errors": ("DomainError", "QuadratureUnderflowError", "SizeLimitError", "ValidationError"),
    "fd": ("fd_partial", "fornberg_weights", "stencil_halfwidth"),
    "forms": (
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
    ),
    "graphs": ("LabeledMultigraph", "export_dot", "graph_to_partition", "partition_to_graph"),
    "partitions": ("Partition", "enumerate_diverse", "set_partitions"),
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it as a package attribute
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})

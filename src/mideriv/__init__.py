"""Verification laboratory for information derivatives in Gaussian noise.

The package computes mutual information for finite-support inputs
observed through independent Gaussian channels at per-channel snr,
expands its mixed snr-derivatives as exact partition sums over diverse
partitions of doubled index multisets, and cross-checks every identity
numerically (high-order finite differences) and exactly (rational
arithmetic) through scripted verification suites.

Layout:
  partitions  diverse partitions, built by one slot programme
  graphs      loop-free multigraph duals and DOT export
  forms       exact symbolic expansions, moment oracles, cumulants
  channel     quadrature and the one posterior pass behind mutual
              information (one snr row or a batch), mmse and
              conditional forms
  fd          exact-weight finite differences with Richardson control
  closedform  two-point closed forms and seeded rational generators
  verify      comparison suites and deterministic reports
  cli         the `mideriv` command
"""
from .channel import (
    ChannelSpec,
    DiscreteJoint,
    QuadratureRule,
    expected_conditional_tau,
    gauss_hermite,
    mmse,
    mutual_information,
    mutual_information_many,
)
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
from .verify import (
    CaseRecord,
    DerivativeCase,
    DerivativeRequest,
    VerificationReport,
    adjudicate_first_derivative,
    run_suite,
    verify_all,
    verify_cumulant_routes,
    verify_derivatives,
    verify_gaussian_chain,
    verify_multiquadratic,
    verify_snr_combining,
)

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

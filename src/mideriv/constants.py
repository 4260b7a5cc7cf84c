"""Constants shared by the numeric modules and the command line.

The parser and the payload header read these without loading numpy, so
they live here rather than in channel or verify, which import them.
"""

# Top-level "schema" of every JSON payload: reports and CLI commands.
SCHEMA_VERSION = 1

# Gauss-Hermite order of a quadrature call that names no rule.
DEFAULT_QUAD_ORDER = 64

# Verification suites by CLI token; "all" runs the others in this order.
SUITE_NAMES = ("theorem1", "lemma1", "lemma2", "gaussian", "cumulants", "all")

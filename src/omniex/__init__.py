"""omniex: minimum-cost rate allocation and finite-field code construction
for broadcast data exchange among users with correlated side information.

The public surface groups into:

* ``field``    exact linear algebra over prime fields;
* ``setfun``   set functions over subset masks and value comparisons;
* ``sources``  entropy oracles for linear, pmf and raw-table sources;
* ``rates``    the rate optimizers (sum rate, weighted, fixed denominator);
* ``netcode``  transmission scheme construction, verification, decoding;
* ``reference`` brute-force and independent oracles that check the above
  (submodularity, submask enumeration, greedy vertices, brute-force
  minimization, Dilworth truncation, the multicast transfer-matrix view);
  no solver calls them, so the root re-exports only the few names its
  callers take from it, and loads the module on first use of one;
* ``cli``      the ``omniex`` command line tool and document formats.
"""

from .errors import (
    ConstraintViolation,
    ConstructionFailed,
    DimensionMismatch,
    FieldTooSmall,
    InconsistentObservations,
    InfeasibleBeta,
    InfeasibleRates,
    InvalidN,
    NegativeWeight,
    NonConvergence,
    NonIntegerRates,
    NonTermination,
    TooLarge,
    UnitMismatch,
    ValidationError,
    ZeroInverse,
)
from .field import FieldMatrix, is_prime, kron_block, stack
from .netcode import (
    TransmissionScheme,
    broadcast_symbols,
    construct_code,
    decode,
    receiver_ranks,
    user_observation,
    verify_omniscience,
)
from .rates import (
    RateVector,
    h_eval,
    ilp_rates,
    minimize_weighted,
    modified_edmond,
    rco_partition_formula,
    rco_sum_rate,
    verify_feasible,
)
from .setfun import SetFunction
from .sources import (
    DmmsSource,
    EntropyOracle,
    LinearSource,
    TableSource,
    make_dmms_source,
    make_linear_source,
    validate,
)

__version__ = "0.1.0"

# The names re-exported from ``reference``, imported on first request.
_REFERENCE = frozenset({
    "MulticastNetwork", "dmms_from_linear", "dual", "is_intersecting_submodular",
    "is_submodular",
})


def __getattr__(name: str):
    if name in _REFERENCE:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

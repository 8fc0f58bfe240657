"""deltalin: exact arithmetic for delta-linear equations over truncated
unramified p-adic rings, with solvers, prime-integral diagnostics, and
delta-Galois membership tools."""

from ._kernel import COMPILED_AVAILABLE
from .ring import (
    RingContext,
    RingElement,
    exp_p,
    log_p,
    make_context,
    one_plus_pt_pow,
    psi,
)

__version__ = "0.1.0"

__all__ = [
    "COMPILED_AVAILABLE",
    "RingContext",
    "RingElement",
    "make_context",
    "exp_p",
    "log_p",
    "one_plus_pt_pow",
    "psi",
    "__version__",
]

"""Exact computation with periodic and even functions mod r.

Core pieces: Ramanujan sums by the integer divisor-sum formula, the
DFT/IDFT pair for periodic functions, the divisor-indexed transform
pair for even functions (exact on rational input), Cauchy products in
both domains, and verifiers for the orthogonality, symmetry, kernel and
transform-bridge identities.
"""

from .arith import (
    FACTORIZE_CAP,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
)
from .errors import CapacityError, DomainError, FormatError, NotEvenError
from .even import (
    CAUCHY_KERNEL_CAP,
    EvenFunction,
    EvenSpectrum,
    IdentityCheck,
    VerificationReport,
    cauchy_product_even,
    from_periodic,
    inner_product_even,
    irft,
    ramanujan_basis,
    rft,
    rft_divisor_form,
    rft_naive,
    to_periodic,
    verify_cauchy_kernel_even,
    verify_orthogonality,
    verify_rft_dft_bridge,
    verify_symmetry,
)
from .funcfile import (
    format_function,
    format_scalar,
    load_function,
    parse_function_json,
    parse_function_text,
    parse_scalar,
)
from .periodic import (
    PeriodicSpectrum,
    ResidueFunction,
    Scalar,
    cauchy_product,
    cauchy_product_spectral,
    dft,
    even_witness,
    idft,
    inner_product_periodic,
    is_even,
)
from .ramanujan import (
    ORACLE_CAP,
    ramanujan_sum,
    ramanujan_sum_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FACTORIZE_CAP",
    "ORACLE_CAP",
    "CAUCHY_KERNEL_CAP",
    "ResidueFunction",
    "PeriodicSpectrum",
    "EvenFunction",
    "EvenSpectrum",
    "IdentityCheck",
    "VerificationReport",
    "Scalar",
    "DomainError",
    "CapacityError",
    "NotEvenError",
    "FormatError",
    "factorize",
    "divisors",
    "is_prime",
    "mobius",
    "euler_phi",
    "ramanujan_sum",
    "ramanujan_sum_oracle",
    "ramanujan_basis",
    "dft",
    "idft",
    "inner_product_periodic",
    "cauchy_product",
    "cauchy_product_spectral",
    "is_even",
    "even_witness",
    "from_periodic",
    "to_periodic",
    "rft",
    "rft_naive",
    "rft_divisor_form",
    "irft",
    "inner_product_even",
    "cauchy_product_even",
    "verify_orthogonality",
    "verify_symmetry",
    "verify_rft_dft_bridge",
    "verify_cauchy_kernel_even",
    "load_function",
    "parse_function_text",
    "parse_function_json",
    "format_function",
    "parse_scalar",
    "format_scalar",
]

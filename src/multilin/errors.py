"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: precondition failures exit
with 2, exceeded enumeration caps with 3, and invariant violations
(results that would falsify a verified identity) with 4.
"""


class MultilinError(Exception):
    """Base class for all package errors."""


class PreconditionError(MultilinError):
    """An operation was called outside its stated domain."""

    exit_code = 2


class CapExceededError(MultilinError):
    """An enumeration would exceed the configured cap."""

    exit_code = 3

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class InvariantViolation(MultilinError):
    """A verified invariant failed; indicates a bug, never expected."""

    exit_code = 4


# Default ceiling on enumeration work (subspace visits / tuples scanned).
DEFAULT_CAP = 10_000_000


def check_cap(required, cap, what):
    if required > cap:
        try:
            needs = str(required)
        except ValueError:  # more digits than the int-to-str limit
            needs = f"over 2^{required.bit_length() - 1}"
        raise CapExceededError(
            f"{what} needs {needs} enumeration steps, cap is {cap}",
            required=required,
            cap=cap,
        )


def check_cap_bits(bits, cap, what):
    """Refuse work known to take at least 2^bits steps when that passes the
    cap, before its exact count is formed: forming a huge count (a power
    with a huge exponent) can itself hang."""
    if bits >= cap.bit_length():
        raise CapExceededError(
            f"{what} needs at least 2^{bits} enumeration steps, cap is {cap}", cap=cap
        )

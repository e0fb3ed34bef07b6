"""Run-wide size caps and the error raised when a computation would exceed them."""

from dataclasses import dataclass

DEFAULT_SEED = 12345


class CapExceededError(RuntimeError):
    """A computation refused to run because it would exceed a configured cap.

    Operations never degrade to approximate answers; they abort instead.
    """

    def __init__(self, message: str, cap_name: str, cap_value: int):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


@dataclass(frozen=True)
class Caps:
    """Size caps shared by the whole toolkit.

    group_order    largest finite group that enumeration will close
    span_products  most generator products expanded in one graded piece
    monomials      largest monomial basis for a dimension count, and most
                   columns (monomials) in one span or membership system
    """

    group_order: int = 100_000
    span_products: int = 50_000
    monomials: int = 20_000


DEFAULT_CAPS = Caps()

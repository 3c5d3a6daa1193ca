"""Exception hierarchy shared by every module, and the one range rule.

The CLI maps these classes onto distinct exit codes, so new error
conditions should subclass one of the categories below rather than
raising bare ValueError.
"""


class DpfError(Exception):
    """Base class for all library errors."""


class ParameterError(DpfError, ValueError):
    """An argument or parameter combination is invalid."""


class HonestMajorityError(ParameterError):
    """The corruption bound is incompatible with an honest majority."""


class GuardError(DpfError):
    """Refused outright: the parameters exceed a hard resource guard."""


class FormatError(DpfError, ValueError):
    """A serialized key or data file is malformed."""


class InternalError(DpfError):
    """An internal invariant failed; indicates a bug, not bad input."""


def shown(value) -> str:
    """`value` for a message, an integer past 24 digits by its digit count alone."""
    if not isinstance(value, int) or -10 ** 24 < value < 10 ** 24:
        return str(value)  # numpy's integers stay below 2**64
    digits = int(abs(value).bit_length() * 0.3010299956639812) + 1  # exact or one over
    return f"a {digits - (10 ** (digits - 1) > abs(value))}-digit integer"


def check_range(what: str, value, lo: int, hi: int, error: type = ParameterError) -> None:
    """Refuse `value` outside [lo, hi) as `<what> <value> out of range [lo, hi)`."""
    if not lo <= value < hi:
        raise error(f"{what} {shown(value)} out of range [{shown(lo)}, {shown(hi)})")

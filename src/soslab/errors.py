"""Exception types shared across the package, and the one parameter check
that every stage taking s_star shares."""


class SoslabError(Exception):
    """Base class for all package errors."""


class InvalidParams(SoslabError):
    """Parameters violate their documented constraints."""


def check_s_star(s_star: int, d: int) -> None:
    """Every stage takes 2 <= s_star <= d: the averages divide by
    s_star * (s_star - 1), and d vertices have no larger subset."""
    if not 2 <= s_star <= d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={d}")


class RademacherWithSignal(InvalidParams):
    """Two-point noise is a null construction and requires beta_star = 0."""


class TooLarge(SoslabError):
    """A combinatorial enumeration or matrix dimension exceeds its budget."""


class NotBinary(SoslabError):
    """Binary positivity mode was applied to a matrix with entries outside {0, 1}."""


class CertificateUndefined(SoslabError):
    """No all-positive 2l-clique exists, so the certificate would divide by zero."""


class MissingValue(SoslabError):
    """A pseudo-expectation was queried outside the subsets it covers."""


class EigFailure(SoslabError):
    """The symmetric eigensolver failed to converge."""

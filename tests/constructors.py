"""Constructors that only the tests use: a ``NoisyMatrix`` from a full
array and a ``PseudoExpectation`` from a map of subsets to rationals."""
import math

import numpy as np

from soslab.errors import InvalidParams
from soslab.matrix import NoisyMatrix, pair_indices
from soslab.sos import PseudoExpectation, exact_dtype
from soslab.subsets import is_subset_key, key_index, var_count


def matrix_from_dense(full):
    """Build from a full symmetric array; diagonal is ignored."""
    full = np.asarray(full, dtype=np.float64)
    if full.ndim != 2 or full.shape[0] != full.shape[1]:
        raise InvalidParams("expected a square array")
    if not np.allclose(full, full.T, atol=0.0, rtol=0.0):
        raise InvalidParams("expected an exactly symmetric array")
    d = full.shape[0]
    return NoisyMatrix(d=d, entries=full[pair_indices(d)])


def pe_from_values(d, ell, s_star, values, eta_empty=None):
    """From a map of subsets to rationals. Zero values, and keys that are
    not moments (sorted tuples inside 1..d of size <= 2*ell), are ignored;
    the denominator is the least common one."""
    moments = {k: v for k, v in values.items() if v and is_subset_key(k, d, 2 * ell)}
    den = math.lcm(*{v.denominator for v in moments.values()})
    nums = [v.numerator * (den // v.denominator) for v in moments.values()]
    num = np.zeros(var_count(d, 2 * ell), dtype=exact_dtype(max(map(abs, nums), default=0)))
    num[[key_index(d, key) for key in moments]] = nums
    return PseudoExpectation(d=d, ell=ell, s_star=s_star, num=num, den=den, eta_empty=eta_empty)

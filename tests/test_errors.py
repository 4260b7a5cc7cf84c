"""Every count a public function takes is read by errors.integer."""
from __future__ import annotations

import numpy as np
import pytest

from mideriv.closedform import half_log_derivative
from mideriv.errors import DomainError, SizeLimitError, ValidationError
from mideriv.fd import central_stencil, fornberg_weights
from mideriv.forms import (
    SlotBinding,
    gaussian_moment_oracle,
    kappa_eval,
    kappa_recursion_oracle,
    kappa_symbolic,
    tau_symbolic,
)
from mideriv.partitions import enumerate_diverse

GAUSS = gaussian_moment_oracle()

# (entry point as a function of the count, a valid count above 1, error
# class, an integer count out of range and the start of its message)
ENTRY_POINTS = {
    "enumerate_diverse n": (enumerate_diverse, 3, SizeLimitError, 0, "n=0: "),
    "enumerate_diverse min_block_size": (
        lambda k: enumerate_diverse(3, k), 2, ValidationError, 3, "min_block_size: got 3"),
    "tau_symbolic min_block_size": (
        lambda k: tau_symbolic(SlotBinding((1, 1, 2)), k), 2, ValidationError, 3, "min_block_size: got 3"),
    "kappa_symbolic": (kappa_symbolic, 3, DomainError, 0, "n=0: "),
    "kappa_eval": (lambda k: kappa_eval(k, GAUSS), 2, DomainError, 0, "n=0: "),
    "kappa_recursion_oracle": (lambda k: kappa_recursion_oracle(k, GAUSS), 3, DomainError, 0, "n=0: "),
    "fornberg_weights": (lambda k: fornberg_weights(k, (-1, 0, 1)), 2, DomainError, -1, "d=-1: "),
    "central_stencil": (central_stencil, 2, DomainError, 0, "d=0: "),
    "half_log_derivative": (half_log_derivative, 2, DomainError, 0, "k=0: "),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_counts_follow_the_integer_rule(name):
    fn, good, error, low, message = ENTRY_POINTS[name]
    # the int calls come first, so a cache that matched 2.0 or True to
    # them would let those through
    expected = fn(good)
    fn(1)
    for count in (np.int64(good), np.int32(good)):
        assert fn(count) == expected
    for bad in (True, False, float(good), 1.0):
        with pytest.raises(error, match="expected an integer"):
            fn(bad)
    # an integer is then checked against the range, not clamped
    with pytest.raises(error, match=f"^{message}"):
        fn(low)

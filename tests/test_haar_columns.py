"""``problems._haar_columns`` against the full-QR Haar construction.

The reference draws the whole n x n complex Gaussian matrix, QR-factors
all of it, fixes the phases of R's diagonal and keeps the first m
columns.  The helper draws the same matrix but factors only those m
columns, so it must agree to rounding and leave the generator at the
same point of its stream.  A hypothesis property test; the module is
skipped where hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.problems import _haar_columns  # noqa: E402


def _full_qr_columns(dim, cols, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return (q * (np.diagonal(r) / np.abs(np.diagonal(r))))[:, :cols]


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 64), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_thin_qr_matches_full_qr_columns(dim, share, seed):
    cols = 1 + round(share * (dim - 1))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    u = _haar_columns(dim, cols, rng)
    expected = _full_qr_columns(dim, cols, ref_rng)
    assert u.shape == (dim, cols)
    assert np.max(np.abs(u - expected)) <= 1e-13
    assert rng.random() == ref_rng.random()

"""``linalg._canonical_phases`` against the per-column loop it replaced.

The reference walks the columns one at a time: the first entry of
largest magnitude is the pivot, and a column whose pivot is nonzero is
multiplied by |pivot| / pivot.  The whole-array form must give the same
bits and dtypes, on the eigenvectors of random and Fourier embeddings
(whose singular values repeat) and on columns whose largest magnitude is
tied or zero.  A hypothesis property test; the module is skipped where
hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.linalg import _canonical_phases, eig_hermitian, embed  # noqa: E402
from qfit.problems import ProblemSpec, generate_problem  # noqa: E402


def _loop_phases(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if np.abs(pivot) > 0:
            out[:, j] = col * (np.abs(pivot) / pivot)
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "fourier"]), m=st.integers(1, 24),
       extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_eigensystem_matches_the_loop(kind, m, extra, seed):
    n = min(m + extra, 64 - m)
    problem = generate_problem(ProblemSpec(n=n, m=m, kind=kind), seed)
    h = embed(problem.design_matrix).matrix
    values, vectors = np.linalg.eigh(h)
    eig = eig_hermitian(h)
    assert _same_bits(eig.eigenvalues, values)
    assert _same_bits(eig.eigenvectors, _loop_phases(vectors))


_TIED = [1, -1, 1j, -1j, 0.5 + 0.5j, -0.5 - 0.5j, 0.0, -0.0]


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), data=st.data())
def test_tied_and_zero_pivots_match_the_loop(rows, cols, data):
    picks = data.draw(st.lists(st.sampled_from(_TIED), min_size=rows * cols,
                               max_size=rows * cols))
    vectors = np.array(picks, dtype=complex).reshape(rows, cols)
    vectors[:, 0] = complex(-0.0, -0.0)
    assert _same_bits(_canonical_phases(vectors), _loop_phases(vectors))

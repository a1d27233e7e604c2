"""qfit: least-squares fitting on a dense state-vector simulator.

The package prepares the optimal-fit-parameter state of a linear
least-squares problem through phase-estimation passes over the Hermitian
embedding of the design matrix, estimates fit quality with a sampled
swap test, and learns sparse parameter vectors by support sampling plus
interferometric tomography.  Every simulated result is validated against
the classical Moore-Penrose solution.

The API is the modules (``qfit.algorithms``, ``qfit.problems``, ...);
this package re-exports nothing.
"""

__version__ = "0.1.0"

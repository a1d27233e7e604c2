"""``validate_config`` at the edges of its bounds.

A pass is held to two bounds against the spectrum of H:

* aliasing: sigma_max * t0 / (2*pi) < T/2, so every eigenvalue decodes
  to its own signed frequency bin;
* rotation scale: C <= 1/sigma_max + ``_C_BOUND_SLACK`` in multiply mode
  and C <= sigma_min + ``_C_BOUND_SLACK`` in invert mode, so the rotated
  state stays normalizable.

sigma_min and sigma_max are taken over the eigenvalues with |E| above the
zero threshold, whatever their sign and order.  Each example puts t0 or
C next to one bound, down to one float64 step on either side of it, and
requires the config to be accepted exactly inside and refused with
``ConfigError`` outside.  These are hypothesis property tests; the module
is skipped where hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.exceptions import ConfigError  # noqa: E402
from qfit.sim import (  # noqa: E402
    _C_BOUND_SLACK,
    MODE_INVERT,
    MODE_MULTIPLY,
    PhaseEstimationConfig,
    validate_config,
)

CLOCKS = st.sampled_from([2**k for k in range(1, 17)])
MODES = st.sampled_from([MODE_MULTIPLY, MODE_INVERT])


@st.composite
def spectra(draw, e_max=None):
    """(eigenvalues, sigma_min, sigma_max) with both extremes present.

    The other nonzero magnitudes lie between them; signs and order are
    arbitrary, and exact or near zeros (|E| <= 1e-12) are mixed in.
    """
    if e_max is None:
        e_max = draw(st.floats(1e-3, 1e3))
    e_min = e_max / draw(st.floats(1.0, 1e3))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    magnitudes = [e_min, e_max] + [float(np.clip(e_min + f * (e_max - e_min), e_min, e_max))
                                   for f in inner]
    signs = draw(st.lists(st.booleans(), min_size=len(magnitudes),
                          max_size=len(magnitudes)))
    values = [-m if s else m for m, s in zip(magnitudes, signs)]
    values += draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-12]), max_size=2))
    return draw(st.permutations(values)), e_min, e_max


def _accepted(cfg, eigenvalues) -> bool:
    try:
        validate_config(cfg, eigenvalues)
    except ConfigError:
        return False
    return True


def _config(t, t0, c, mode):
    return PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=c, mode=mode)


def _safe_scale(mode, e_min, e_max):
    return 0.5 / e_max if mode == MODE_MULTIPLY else 0.5 * e_min


@settings(max_examples=200, deadline=None)
@given(t=CLOCKS, exponent=st.integers(-8, 8), data=st.data(), mode=MODES,
       below=st.floats(1e-6, 1.0))
def test_aliasing_edge_is_exact(t, exponent, data, mode, below):
    # A power-of-two sigma_max makes sigma_max * t0 and the quotient by 2*pi
    # exact at t0 = pi*T/sigma_max, so the edge is hit to the last bit.
    eigenvalues, e_min, e_max = data.draw(spectra(e_max=2.0**exponent))
    c = _safe_scale(mode, e_min, e_max)
    edge = np.pi * t / e_max
    assert e_max * edge / (2 * np.pi) == t / 2
    just_below = np.nextafter(edge, 0.0)
    assert _accepted(_config(t, just_below, c, mode), eigenvalues)
    assert _accepted(_config(t, min(below * edge, just_below), c, mode), eigenvalues)
    assert not _accepted(_config(t, edge, c, mode), eigenvalues)
    assert not _accepted(_config(t, np.nextafter(edge, np.inf), c, mode), eigenvalues)


@settings(max_examples=200, deadline=None)
@given(t=CLOCKS, spectrum=spectra(), mode=MODES,
       offset=st.floats(1e-9, 1e-3), inside=st.booleans())
def test_aliasing_bound_accepts_exactly_the_spectra_below(t, spectrum, mode, offset, inside):
    eigenvalues, e_min, e_max = spectrum
    t0 = np.pi * t / e_max * (1 - offset if inside else 1 + offset)
    cfg = _config(t, t0, _safe_scale(mode, e_min, e_max), mode)
    assert _accepted(cfg, eigenvalues) == inside


@settings(max_examples=200, deadline=None)
@given(t=CLOCKS, spectrum=spectra(), mode=MODES, slack_share=st.floats(-3.0, 3.0))
def test_scale_bound_holds_to_the_slack(t, spectrum, mode, slack_share):
    eigenvalues, e_min, e_max = spectrum
    t0 = 0.5 * np.pi * t / e_max
    limit = 1 / e_max if mode == MODE_MULTIPLY else e_min
    bound = limit + _C_BOUND_SLACK
    assert _accepted(_config(t, t0, bound, mode), eigenvalues)
    assert not _accepted(_config(t, t0, np.nextafter(bound, np.inf), mode), eigenvalues)
    # Around the limit in steps of the slack: the float64 spacing of the
    # limit (at most 1.2e-13 here) is far below the slack, so 1 % of it
    # either side of the bound is resolved.
    if abs(slack_share - 1.0) > 0.01:
        c = limit + slack_share * _C_BOUND_SLACK
        assert _accepted(_config(t, t0, c, mode), eigenvalues) == (slack_share < 1.0)


@settings(max_examples=50, deadline=None)
@given(t=CLOCKS, mode=MODES, t0=st.floats(1e-3, 1e6), c=st.floats(1e-6, 1e6),
       zeros=st.lists(st.sampled_from([0.0, 1e-13, -1e-12]), max_size=3))
def test_spectrum_without_nonzero_eigenvalues_bounds_nothing(t, mode, t0, c, zeros):
    assert _accepted(_config(t, t0, c, mode), zeros)

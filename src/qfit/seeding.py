"""Deterministic seed derivation.

A run is controlled by one master seed.  Every randomized stage of a
run draws from its own stream, derived as SeedSequence([master,
stream_index]), so adding shots to one stage never perturbs another and
reruns from a stored report reproduce every stream bit for bit.

Stream indices (the documented counter scheme):

    1  support sampling (computational-basis histogram)
    2  swap test
    3  tomography

Problem generation uses no derived stream: ``problems.generate_problem``
seeds its generator with the master seed itself.
"""

from __future__ import annotations

import numpy as np

STREAM_SUPPORT = 1
STREAM_SWAP = 2
STREAM_TOMOGRAPHY = 3


def derive_seed(master: int, stream: int) -> int:
    """64-bit child seed for the given stream of a master seed."""
    seq = np.random.SeedSequence([int(master), int(stream)])
    return int(seq.generate_state(1, np.uint64)[0])


def spawn_rng(master: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, stream))

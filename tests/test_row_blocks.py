"""Row-block threading of a pass: the CPU count moves no bit of any result."""

import dataclasses
import multiprocessing
import os
import threading
import types

import numpy as np
import pytest

from qfit import sim
from qfit.linalg import eig_hermitian, embed
from qfit.problems import normalize_problem
from qfit.sim import (
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_SINE,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    RegisterLayout,
    apply_hermitian_via_pe,
    default_rotation_scale,
    prepare_data_state,
)

from conftest import random_complex_matrix, random_complex_vector

T = 64


def _forced(monkeypatch, cpus):
    """Split every slice into ``cpus`` blocks, however small."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "_MIN_BLOCK", 1)


def _pass_inputs(problem, mode, window):
    """The eigensystem, config and layout of a T-clock pass over ``problem``."""
    eig = eig_hermitian(embed(problem.design_matrix))
    sigma_max = np.max(np.abs(eig.eigenvalues))
    config = PhaseEstimationConfig(
        clock_size=T,
        t0=2 * np.pi * (T / 4 + 0.37) / sigma_max,  # off every bin: leakage everywhere
        rotation_scale=default_rotation_scale(mode, eig.eigenvalues),
        mode=mode,
        window=window,
    )
    return eig, config, RegisterLayout(clock_size=T, system_dim=problem.m + problem.n)


def _pass_bytes(problem, mode, window):
    """The bytes of a pass's output vector and of every field of its diagnostics."""
    eig, config, layout = _pass_inputs(problem, mode, window)
    vector, info = apply_hermitian_via_pe(prepare_data_state(problem, layout), eig, config)
    fields = np.array([getattr(info, f.name) for f in dataclasses.fields(info)])
    return vector.tobytes(), fields.tobytes()


@pytest.mark.parametrize("mode", [MODE_MULTIPLY, MODE_INVERT])
@pytest.mark.parametrize("window", [WINDOW_UNIFORM, WINDOW_SINE])
@pytest.mark.parametrize("n, m", [(4, 3), (1, 1)], ids=["D7", "D2"])
def test_pass_is_bit_identical_at_any_block_count(monkeypatch, rng, mode, window, n, m):
    problem = normalize_problem(random_complex_matrix(rng, n, m, kappa_max=4.0),
                                random_complex_vector(rng, n))
    blocks = []
    by_rows = sim._by_rows

    def recording(fn, rows, cols):
        def block(r):
            blocks.append((r.start, r.stop))
            fn(r)

        by_rows(block, rows, cols)

    monkeypatch.setattr(sim, "_by_rows", recording)
    _forced(monkeypatch, 1)
    single = _pass_bytes(problem, mode, window)
    assert set(blocks) == {(None, None)}
    blocks.clear()
    # Three uneven blocks at D = 7 (2, 2 and 3 rows); at D = 2 one row each.
    _forced(monkeypatch, 3)
    assert _pass_bytes(problem, mode, window) == single
    d = n + m
    expected = {(0, 2), (2, 4), (4, 7)} if d == 7 else {(0, 1), (1, 2)}
    assert set(blocks) == expected


# Every stage that writes through sim._written_state, as stage(inputs, state).
STAGES = {
    "window": lambda p, s: sim._windowed_state(p.coords, p.window, p.layout),
    "evolution": lambda p, s: sim.conditional_evolution(s, p.eig, p.config),
    "inverse-evolution": lambda p, s: sim.conditional_evolution(s, p.eig, p.config,
                                                                inverse=True),
    "forward-qft": lambda p, s: sim.qft_clock(s, "forward"),
    "inverse-qft": lambda p, s: sim.qft_clock(s, "inverse"),
    "rotated-flag-one": lambda p, s: sim._rotated_flag_one(s, p.config),
    "rotation": lambda p, s: sim.controlled_rotation(s, p.config),
    "reflection": lambda p, s: sim.reflect_clock_window(s, p.window),
    "flag-postselection": lambda p, s: sim.postselect_flag(s)[0],
}
TWO_INPUTS = ["evolution", "inverse-evolution", "forward-qft", "inverse-qft", "rotation",
              "reflection"]


@pytest.mark.parametrize(
    "stage, live_in",
    [(name, flag) for name in TWO_INPUTS for flag in (0, 1)]
    + [("window", 0), ("rotated-flag-one", 0), ("flag-postselection", 1)])
def test_split_stages_zero_their_dead_slices(monkeypatch, rng, stage, live_in):
    """Each block zeroes its own rows of a dead slice; no row keeps what np.empty held."""
    problem = normalize_problem(random_complex_matrix(rng, 4, 3, kappa_max=4.0),
                                random_complex_vector(rng, 4))
    eig, config, layout = _pass_inputs(problem, MODE_INVERT, WINDOW_SINE)
    p = types.SimpleNamespace(eig=eig, config=config, layout=layout,
                              window=sim.clock_window(T, WINDOW_SINE),
                              coords=eig.eigenvectors.conj().T @ sim.data_state_vector(problem))
    state = sim._windowed_state(p.coords, p.window, layout)  # flag 0 live
    if live_in == 1:
        state = sim._rotated_flag_one(state, config)
    whole = STAGES[stage](p, state)

    empty = np.empty

    def nan_filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "c":
            out.fill(complex(np.nan, np.nan))
        return out

    monkeypatch.setattr(np, "empty", nan_filled)
    _forced(monkeypatch, 3)
    split = STAGES[stage](p, state)
    assert split.live_flags == whole.live_flags
    for f in range(2):
        if f in split.live_flags:
            assert split.amplitudes.T[f].tobytes() == whole.amplitudes.T[f].tobytes()
        else:
            assert (split.amplitudes.T[f] == 0).all()


def test_small_slices_run_whole_on_the_calling_thread(monkeypatch):
    def no_count():
        raise AssertionError("a slice too small to split asked for the CPU count")

    monkeypatch.setattr(sim, "_cpu_count", no_count)
    calls = []
    # 64 x 1024 amplitudes: no block of 2**17 fits.
    sim._by_rows(lambda r: calls.append((r, threading.get_ident())), 64, 1024)
    assert calls == [(slice(None), threading.get_ident())]


def test_blocks_hold_at_least_the_minimum(monkeypatch):
    monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
    seen = []
    sim._by_rows(lambda r: seen.append((r.start, r.stop)), 8, 65536)
    # 2 rows of 65536 are the fewest that hold 2**17 amplitudes.
    assert sorted(seen) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_an_exception_in_a_later_block_reaches_the_caller(monkeypatch):
    _forced(monkeypatch, 3)
    out = np.zeros(7)

    def failing(r):
        if r.start > 0:
            raise ValueError(f"block {r.start}")
        out[r] = 1

    with pytest.raises(ValueError, match="block 2"):
        sim._by_rows(failing, 7, 1)

    def fill(r):
        out[r] = 2

    sim._by_rows(fill, 7, 1)
    assert (out == 2).all()


def _split_in_child(queue):
    out = np.zeros(4)

    def fill(r):
        out[r] = r.start + 1

    sim._by_rows(fill, 4, 1)  # forced into two blocks, as in the parent
    queue.put(out.tolist())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_splits_with_a_pool_of_its_own(monkeypatch):
    _forced(monkeypatch, 2)
    sim._by_rows(lambda r: None, 4, 1)  # the parent's pool now has a thread
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_split_in_child, args=(queue,))
    child.start()
    try:
        result = queue.get(timeout=30)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert result == [1.0, 1.0, 3.0, 3.0]
    assert child.exitcode == 0

"""Eigendecompositions and orthonormalizations per index evaluation.

Each pair of planes has its spectrum computed once, a transversal index
decides transversality once (with no LAPACK call at all for n = 1, whose
spectrum is one entry), and ``inert`` orthonormalizes its three frames with
one QR and reads their three pair spectra with one eigvals; the
auxiliary-plane path of ``leray_index`` orthonormalizes the caller's frames
once for both of its evaluations.  The ``index`` identities task makes one
call of each per block of triples, whatever the number of trials.  A
flowed cover lift reads one batched determinant over its sampled path and
one batched QR of its two ends, and a sampled lift one determinant per
batch of new samples.  These counts pin that down.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from symwave import cli, maslov
from symwave.flows import harmonic_hamiltonian, quartic_hamiltonian
from symwave.maslov import (
    inert,
    leray_index,
    lift_from_frame,
    lift_path,
    lift_path_adaptive,
    transport_lift,
)
from symwave.polynomials import Polynomial
from symwave.symplectic import (
    LagrangianFrame,
    _band_dim,
    form_matrix,
    random_lagrangian_frame,
    vertical_frame,
)
from symwave.waveforms import FlowedManifold, GradientGraphManifold, morse_index


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def linalg_calls(monkeypatch):
    return _count_calls(monkeypatch, ("eigvals", "qr"))


@pytest.fixture
def triple():
    rng = np.random.default_rng(3)
    return [random_lagrangian_frame(2, rng) for _ in range(3)]


def test_transversal_index_has_one_spectrum(triple, linalg_calls):
    fa, fb, _ = triple
    a, b = lift_from_frame(fa), lift_from_frame(fb)
    linalg_calls.update(eigvals=0, qr=0)
    leray_index(a, b, frames=(fa, fb))
    assert linalg_calls == {"eigvals": 1, "qr": 0}


def test_transversal_index_decides_transversality_once(triple, linalg_calls, monkeypatch):
    fa, fb, _ = triple
    a, b = lift_from_frame(fa), lift_from_frame(fb)
    bands = []

    def counted(lam, *args):
        bands.append(lam)
        return _band_dim(lam, *args)

    monkeypatch.setattr(maslov, "_band_dim", counted)
    linalg_calls.update(eigvals=0, qr=0)
    leray_index(a, b)
    assert linalg_calls["eigvals"] == 1 and len(bands) == 1


def test_line_index_reads_no_eigvals(linalg_calls):
    # for n = 1 the pair spectrum is one product of entries
    rng = np.random.default_rng(3)
    fa, fb = random_lagrangian_frame(1, rng), random_lagrangian_frame(1, rng)
    a, b = lift_from_frame(fa), lift_from_frame(fb)
    linalg_calls.update(eigvals=0, qr=0)
    assert maslov.leray_index_transversal(a, b) == leray_index(a, b, frames=(fa, fb))
    assert linalg_calls == {"eigvals": 0, "qr": 0}


def test_line_morse_window_reads_no_eigvals(linalg_calls):
    # one focal point of the unit oscillator, at t = pi
    H = harmonic_hamiltonian([1.0])
    assert morse_index(H, [0.3], [0.4], 0.0, 4.0) == 1
    assert linalg_calls["eigvals"] == 0


def test_inert_has_one_spectrum_stack_and_one_qr(triple, linalg_calls):
    # the three frames are not orthonormal: one stacked QR makes them so, and
    # one stacked eigvals reads the spectra of the three pairs
    inert(*triple)
    assert linalg_calls == {"eigvals": 1, "qr": 1}


def test_self_index_call_counts(triple, linalg_calls):
    fa = triple[0]
    a = lift_from_frame(fa)
    linalg_calls.update(eigvals=0, qr=0)
    assert leray_index(a, a, frames=(fa, fa)) == 2
    assert linalg_calls["eigvals"] <= 11 and linalg_calls["qr"] <= 4


def test_flowed_cover_lift_has_two_qr_and_one_det(monkeypatch):
    base = GradientGraphManifold(Polynomial(1, [(0.2, (1,)), (0.25, (2,))]))
    man = FlowedManifold(base, quartic_hamiltonian([1.0], 0.1), 0.0, 2.0, steps=1000)
    man.path([0.4])  # integrate first: only the lift is counted
    calls = _count_calls(monkeypatch, ("qr", "det"))
    man.cover_lift([0.4])
    # one QR for the base lift's frame, one for the two ends of the flowed path
    assert calls["qr"] <= 2 and calls["det"] <= 1


def turning_frame(t):
    """Both lines of an n = 2 product turn at 20 rad per unit: ``arg det w = 80 t``."""
    c, s = np.cos(20 * t), np.sin(20 * t)
    return LagrangianFrame(np.diag([-s, -s]), np.diag([c, c]))


def test_lift_path_has_no_qr_and_one_det(monkeypatch):
    frames = [turning_frame(t) for t in np.linspace(0.0, 1.0, 200)]
    calls = _count_calls(monkeypatch, ("qr", "det"))
    lifts = lift_path(frames, 0.0)
    assert calls == {"qr": 0, "det": 1}
    assert abs(lifts[-1].alpha - 80.0) < 1e-9


def test_transport_lift_has_one_det_per_refinement_level(monkeypatch):
    rng = np.random.default_rng(5)
    fa = random_lagrangian_frame(2, rng)
    a = lift_from_frame(fa)
    A = rng.uniform(-1.0, 1.0, size=(4, 4))
    # a fast rotation: arg det w turns about 40 rad, so the start grid is too coarse
    generator = form_matrix(2) @ ((A + A.T) / 2 + 10.0 * np.eye(4))

    def s_fn(t):
        return expm(t * generator)

    times, _ = lift_path_adaptive(lambda t: fa.transformed(s_fn(t)), 0.0, 1.0, a.alpha)
    levels = round(np.log2((1 / 32) / np.min(np.diff(times))))
    assert levels >= 1
    calls = _count_calls(monkeypatch, ("qr", "det"))
    transport_lift(a, fa, s_fn)
    # the one QR is the check that fa spans the plane of a
    assert calls["qr"] <= 1 and calls["det"] <= levels + 1


# the second frame is orthonormal, so it skips the rank check and QR
NON_LAGRANGIAN = (
    LagrangianFrame(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]),
    LagrangianFrame([[1.0, 0.0], [0.0, np.sqrt(0.5)]], [[0.0, np.sqrt(0.5)], [0.0, 0.0]]),
)


def test_inert_rejects_non_lagrangian_frame():
    f = vertical_frame(2)
    for bad in NON_LAGRANGIAN:
        for frames in ((bad, f, f), (f, bad, f), (f, f, bad)):
            with pytest.raises(ValueError):
                inert(*frames)


def test_auxiliary_path_rejects_non_lagrangian_frame():
    f = vertical_frame(2)
    a = lift_from_frame(f)
    for bad in NON_LAGRANGIAN:
        for frames in ((bad, f), (f, bad)):
            with pytest.raises(ValueError):
                leray_index(a, a, frames=frames)


def test_sampled_lifts_reject_a_non_lagrangian_frame():
    for bad in NON_LAGRANGIAN:
        with pytest.raises(ValueError, match="not a Lagrangian frame"):
            lift_path([turning_frame(0.0), bad, turning_frame(0.02)], 0.0)
        # on the start grid, and at a midpoint that only the first level evaluates
        for at in (0.5, 1 / 64):

            def frame_fn(t, at=at, bad=bad):
                return bad if t == at else turning_frame(t)

            with pytest.raises(ValueError, match="not a Lagrangian frame"):
                lift_path_adaptive(frame_fn, 0.0, 1.0, 0.0)


def test_index_grid_builds_no_frame_from_w(monkeypatch):
    # the grid passes each angle's tangent frame, so its 4 coincident pairs
    # rebuild no frame from w (two per pair without frames=)
    calls = []
    original = maslov.frame_from_souriau
    monkeypatch.setattr(maslov, "frame_from_souriau", lambda w: calls.append(w) or original(w))
    _, results, _ = cli.run_index({"task": "grid", "theta_count": 4}, 0)
    assert len(calls) == 0 and results["all_match"]


def test_identities_calls_per_block_do_not_grow_with_trials(monkeypatch):
    # outside leray_index's non-transversal path (every self-index goes there),
    # a block of triples makes one solve (the exponentials), one QR (the
    # frames), one eigvals (the pair spectra) and one eigvalsh (the inertia
    # indices), however many trials it holds
    calls = _count_calls(monkeypatch, ("eigvals", "qr", "eigvalsh", "solve"))
    original = cli.leray_index

    def uncounted(*args, **kwargs):
        before = dict(calls)
        try:
            return original(*args, **kwargs)
        finally:
            calls.update(before)

    monkeypatch.setattr(cli, "leray_index", uncounted)
    block = cli._IDENTITY_BLOCK
    for trials, blocks in ((1, 1), (5, 1), (block, 1), (2 * block + 1, 3)):
        calls.update(dict.fromkeys(calls, 0))
        _, results, _ = cli.run_index({"task": "identities", "dims": [2], "trials": trials}, 3)
        assert results["all_exact"]
        assert calls == dict.fromkeys(calls, blocks), trials

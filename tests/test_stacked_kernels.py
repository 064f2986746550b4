"""The stacked index kernels equal their one-item views slice by slice.

``symplectic._expm``, ``_qr_frames``, ``_orthonormal_frames``, ``_spectrum``
and ``_triples`` (pair spectra and signatures, with ``maslov._inerts``) take
a stack and make one LAPACK call per step; each one-item function is the
N = 1 view of its kernel.  A slice of a stack must give what the one-item call gives:
bit for bit for the exponentials, frames and spectra, exactly for the
signatures and inertia indices, which are also checked against the closed
form of product triples.  The ``index`` identities task builds its frames,
lifts, pair spectra and inertia indices in blocks of triples through these
kernels; its payload and its lifts must equal those of the per-pair loop it
replaces, written out below as the oracle.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from symwave import cli
from symwave.maslov import (
    _inerts,
    deck_act,
    inert,
    leray_index,
    lift_from_frame,
)
from symwave.symplectic import (
    LagrangianFrame,
    _expm,
    _orthonormal_frames,
    _pair_spectrum,
    _qr_frames,
    _spectrum,
    _triples,
    orthonormalize_frame,
    random_lagrangian_frame,
    random_symplectic,
    signature,
    souriau_w,
)


def bits(values):
    # a nested list of complex numbers down to the sign of each zero
    if isinstance(values, list):
        return [bits(v) for v in values]
    return values.real.hex(), values.imag.hex()


@pytest.mark.parametrize("m", [2, 4, 6, 12])
def test_stacked_expm_is_the_one_matrix_expm_per_slice(m):
    # 1-norms from 0 to about 75 m: squaring counts from 0 up to 6 to 8
    rng = np.random.default_rng(m)
    scales = [0.0, 1e-3, 0.3, 1.0, 5.0, 20.0, 60.0, 150.0]
    A = np.array([s * rng.uniform(-1.0, 1.0, size=(m, m)) for s in scales])
    counts = [math.ceil(math.log2(v / 5.371920351148152)) if v > 5.371920351148152 else 0
              for v in np.abs(A).sum(axis=1).max(axis=1)]
    assert len(set(counts)) >= 5
    E = _expm(A)
    for a, e in zip(A, E):
        assert e.tobytes() == _expm(a).tobytes()
    assert np.allclose(E[0], np.eye(m), rtol=0.0, atol=1e-15)  # LAPACK's solve of b0 I
    for a, e in zip(A[:5], E[:5]):
        assert np.allclose(e, expm(a), rtol=1e-12, atol=1e-12)
    # a slice with a non-finite entry comes back NaN and leaves the others alone
    A[3, 0, 1] = math.inf
    E2 = _expm(A)
    assert np.isnan(E2[3]).all()
    assert np.delete(E2, 3, axis=0).tobytes() == np.delete(E, 3, axis=0).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_orthonormalization_is_the_one_frame_call_per_slice(n):
    rng = np.random.default_rng(10 + n)
    frames = [random_lagrangian_frame(n, rng) for _ in range(6)]
    # every other frame orthonormal already: used as it is, the rest through QR
    frames[::2] = [orthonormalize_frame(f) for f in frames[::2]]
    F = np.array([f.stacked() for f in frames])
    for f, q in zip(frames, _qr_frames(F)):
        assert q.tobytes() == orthonormalize_frame(f).stacked().tobytes()
    for k, o in enumerate(_orthonormal_frames(F)):
        assert o.tobytes() == _orthonormal_frames(F[k : k + 1])[0].tobytes()
        assert np.allclose(o.T @ o, np.eye(n), rtol=0.0, atol=1e-13)
    G = F[::2].copy()
    assert _orthonormal_frames(G) is G


def test_a_failing_slice_is_named_by_its_sample():
    rng = np.random.default_rng(3)
    F = np.array([orthonormalize_frame(random_lagrangian_frame(2, rng)).stacked()
                  for _ in range(5)])
    rank_deficient = F.copy()
    rank_deficient[2, :, 1] = rank_deficient[2, :, 0]
    with pytest.raises(ValueError, match="rank deficient at sample 2"):
        _qr_frames(rank_deficient)
    with pytest.raises(ValueError, match="not a Lagrangian frame .* at sample 2"):
        _orthonormal_frames(rank_deficient)
    # orthonormal columns (1, 0; 0, 0) and (0, 1/sqrt 2; 1/sqrt 2, 0): not isotropic
    non_isotropic = F.copy()
    non_isotropic[4] = [[1.0, 0.0], [0.0, math.sqrt(0.5)], [0.0, math.sqrt(0.5)], [0.0, 0.0]]
    with pytest.raises(ValueError, match="not a Lagrangian frame .* at sample 4"):
        _orthonormal_frames(non_isotropic)
    # not orthonormal and not isotropic
    non_isotropic[1] = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="not a Lagrangian frame .* at sample 1"):
        _orthonormal_frames(non_isotropic)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_stacked_spectrum_is_eigvals_per_slice(n):
    rng = np.random.default_rng(20 + n)
    M = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    if n == 1:
        # entries past LAPACK's scaling range, a signed zero and a negative real
        M[:6, 0, 0] = [1e-150 + 1e-151j, 3e150 - 1e150j, complex(2.0, -0.0), -0.5, 1.0, 1j]
    want = [np.linalg.eigvals(m).tolist() for m in M]
    assert bits(_spectrum(M)) == bits(want)
    assert bits([_spectrum(m) for m in M]) == bits(want)
    # the pair spectra of a stack of triples; in triple 1, b lies on the plane of a
    frames = [random_lagrangian_frame(n, rng) for _ in range(3 * 12)]
    frames[4] = frames[3]
    _, W, lams, dims, _ = _triples(np.array([f.stacked() for f in frames]).reshape(12, 3, 2 * n, n))
    for f, w in zip(frames, W):
        assert w.tobytes() == souriau_w(f).tobytes()
    want = [_pair_spectrum(W[t + i], W[t + j])
            for t in range(0, 36, 3) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert bits(lams) == bits(want)
    assert dims == [n if k == 3 else 0 for k in range(36)]


def product_frame(angles):
    # the product of the lines at angles[j] in the j-th symplectic plane
    return LagrangianFrame(np.diag(-np.sin(angles)), np.diag(np.cos(angles)))


def product_signature(t1, t2, t3):
    # Q splits over the symplectic planes.  On the lines at angles a, b, c of
    # one plane Omega(v_i, v_j) = sin(a_i - a_j), and the symmetric 3 x 3 form
    # has trace 0 and determinant s12 s23 s31 / 4: signature -sign(s12 s23 s31),
    # 0 once two lines coincide
    s = np.sin(t1 - t2) * np.sin(t2 - t3) * np.sin(t3 - t1)
    return int(-np.sum(np.sign(s)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_signature_on_prescribed_intersections(n):
    # lines at angles k pi / 3: two products meet in the planes where their
    # angles agree; a common symplectic map changes neither count nor signature
    rng = np.random.default_rng(30 + n)
    F, dims, want = [], [], []
    for _ in range(30):
        ks = rng.integers(0, 3, size=(3, n))
        t1, t2, t3 = ks * (math.pi / 3)
        S = random_symplectic(n, rng, scale=0.5)
        frames = [product_frame(t).transformed(S) for t in (t1, t2, t3)]
        _, _, _, d, _ = _triples(np.stack([f.stacked() for f in frames])[None])
        prescribed = [int(np.sum(ks[i] == ks[j])) for i, j in ((0, 1), (1, 2), (0, 2))]
        assert d == prescribed
        sig = product_signature(t1, t2, t3)
        d12, d23, d13 = prescribed
        assert signature(*frames) == sig
        assert inert(*frames) == (sig + n + d23 - d13 + d12) // 2
        F.append(np.array([f.stacked() for f in frames]))
        dims.append(prescribed)
        want.append(sig)
    assert len({sum(d) for d in dims}) > 1
    _, _, _, got_dims, sig = _triples(np.array(F))
    assert got_dims == [d for triple in dims for d in triple]
    assert sig.tolist() == want
    assert _inerts(got_dims, sig, n) == [(s + n + d23 - d13 + d12) // 2
                                         for s, (d12, d23, d13) in zip(want, dims)]


def per_pair_identities(dims, trials, seed, tol=0):
    """The identities task one triple and one pair at a time: its payload and its lifts."""
    rng = np.random.default_rng(seed)

    def draw(n):
        f = orthonormalize_frame(random_lagrangian_frame(n, rng))
        return lift_from_frame(f, windings=int(rng.integers(-3, 4))), f

    rows, lifts = [], []
    for n in dims:
        cocycle = self_index = deck_shift = 0
        for _ in range(trials):
            (a, fa), (b, fb), (c, fc) = draw(n), draw(n), draw(n)
            lifts += [a, b, c]
            mab = leray_index(a, b, frames=(fa, fb))
            lhs = (mab - leray_index(a, c, frames=(fa, fc))
                   + leray_index(b, c, frames=(fb, fc)))
            cocycle += abs(lhs - inert(fa, fb, fc)) > tol
            self_index += abs(leray_index(a, a, frames=(fa, fa)) - n) > tol
            k, kp = (int(v) for v in rng.integers(-4, 5, size=2))
            shifted = leray_index(deck_act(k, a), deck_act(kp, b), frames=(fa, fb))
            deck_shift += abs(shifted - (mab + k - kp)) > tol
        rows.append({"n": n, "trials": trials, "cocycle_failures": cocycle,
                     "self_index_failures": self_index,
                     "deck_shift_failures": deck_shift})
    all_exact = all(r["cocycle_failures"] == r["self_index_failures"]
                    == r["deck_shift_failures"] == 0 for r in rows)
    return {"task": "identities", "rows": rows, "all_exact": all_exact}, lifts


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("seed", [1, 7919])
def test_identities_equal_the_per_pair_loop(monkeypatch, seed, block):
    # at the task's block size, and at blocks of 7 triples that split the trials
    if block is not None:
        monkeypatch.setattr(cli, "_IDENTITY_BLOCK", block)
    lifts = []
    original = cli._lifts
    monkeypatch.setattr(cli, "_lifts", lambda W, k: lifts.extend(original(W, k)) or lifts[-len(k):])
    dims, trials = [1, 2, 3, 4, 5, 6], 16
    _, results, _ = cli.run_index({"task": "identities", "dims": dims, "trials": trials}, seed)
    want, want_lifts = per_pair_identities(dims, trials, seed)
    assert results == want and results["all_exact"]
    assert len(lifts) == len(want_lifts) == 3 * trials * len(dims)
    for got, ref in zip(lifts, want_lifts):
        assert got.w.tobytes() == ref.w.tobytes() and got.alpha == ref.alpha


def test_a_coincident_pair_in_a_block_goes_through_leray_index(monkeypatch):
    # trial 0 draws b on the plane of a, and trial 1 draws c on the plane of b:
    # those pairs, the shifted copy of (a, b) and every self-index go through
    # leray_index, and no transversal pair does
    original = cli._exp_symmetric

    def coinciding(A):
        S = original(A)
        S[1], S[5] = S[0], S[4]
        return S

    monkeypatch.setattr(cli, "_exp_symmetric", coinciding)
    seen = []
    leray = cli.leray_index

    def spy(a, b, **kwargs):
        seen.append(a is b)
        return leray(a, b, **kwargs)

    monkeypatch.setattr(cli, "leray_index", spy)
    _, results, _ = cli.run_index({"task": "identities", "dims": [2], "trials": 3}, 5)
    assert results["all_exact"]
    assert sorted(seen) == [False] * 3 + [True] * 3

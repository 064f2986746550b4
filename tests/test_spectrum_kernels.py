"""The pair-spectrum kernels read spectra as Python lists and agree with numpy.

``symplectic._pair_spectrum`` returns the eigenvalues of ``w w'*`` as a list;
``_band_dim`` counts them within ``1e-9`` of 1, and ``maslov._log_trace``
sums ``log|z| + i arg z`` over them.  The oracles below are the array
reductions these kernels replace.  Spectra are drawn with eigenvalues just
inside and just outside the band around 1, and within and just past
``1e-12`` of the cut at -1 and of 0, where both must raise the same
`BranchCutError`.

``symplectic._spectrum`` is the one eigenvalue kernel; it reads a 1 x 1
matrix as its entry, and ``_pair_spectrum`` a pair of 1 x 1 planes as the
product of their entries.  Both must equal ``np.linalg.eigvals`` bit for
bit, signed zeros included, and a non-finite entry must still raise its
``LinAlgError``.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwave.errors import BranchCutError
from symwave.maslov import LagrangianLift, _log_trace, leray_index, principal_log_trace
from symwave.symplectic import (
    _band_dim,
    _pair_spectrum,
    _spectrum,
    intersection_dim,
    transversal,
)
from symwave.waveforms import CircleManifold

BAND = 1e-9
CUT = 1e-12
# distances from an edge, in units of the band or cut width: inside, then past it
EDGE = (0.0, 0.5, 0.9, 1.1, 2.0)


def band_dim_oracle(lam, tol=BAND):
    return int(np.sum(np.abs(np.asarray(lam) - 1.0) <= tol))


def log_trace_oracle(lam, branch_tol=CUT):
    lam = np.asarray(lam, dtype=complex)
    if np.any(np.abs(lam) <= branch_tol):
        raise BranchCutError("singular matrix has no logarithm")
    ang = np.angle(lam)
    if np.any(np.pi - np.abs(ang) <= branch_tol):
        raise BranchCutError("eigenvalue on the negative real axis")
    return complex(np.sum(np.log(np.abs(lam))) + 1j * np.sum(ang))


@st.composite
def eigenvalue(draw, unimodular=False):
    kind = draw(st.sampled_from(["free", "band", "cut"] if unimodular
                                else ["free", "band", "cut", "zero"]))
    phase = draw(st.floats(-math.pi, math.pi))
    edge = draw(st.sampled_from(EDGE))
    if kind == "free":
        r = 1.0 if unimodular else draw(st.floats(0.25, 4.0))
        return cmath.rect(r, phase)
    if kind == "band":  # |z - 1| = edge * 1e-9
        return 1.0 + edge * BAND * cmath.rect(1.0, phase)
    if kind == "cut":  # arg z within or just past 1e-12 of +-pi
        return cmath.rect(1.0, math.copysign(math.pi - edge * CUT, phase))
    return edge * CUT * cmath.rect(1.0, phase)  # |z| within or just past 1e-12


def spectrum(unimodular=False):
    return st.lists(eigenvalue(unimodular), min_size=1, max_size=6)


def outcome(fn, lam):
    # the value, or the error class and message
    try:
        return fn(lam)
    except BranchCutError as exc:
        return BranchCutError, str(exc)


def same_log_trace(got, want, n):
    if isinstance(want, tuple):
        return got == want
    return not isinstance(got, tuple) and abs(got - want) <= 1e-13 * (1 + n)


def unitary(n, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(spectrum())
def test_list_kernels_equal_the_numpy_oracle(lam):
    assert _band_dim(lam) == band_dim_oracle(lam)
    assert isinstance(_band_dim(lam), int)
    assert same_log_trace(outcome(_log_trace, lam), outcome(log_trace_oracle, lam), len(lam))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(spectrum(), st.integers(0, 2**32 - 1))
def test_principal_log_trace_reads_the_oracle_spectrum(lam, seed):
    Q = unitary(len(lam), seed)
    M = (Q * np.asarray(lam)) @ Q.conj().T
    want = outcome(log_trace_oracle, np.linalg.eigvals(M))
    assert same_log_trace(outcome(principal_log_trace, M), want, len(lam))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(spectrum(unimodular=True), st.integers(0, 2**32 - 1))
def test_pair_decisions_read_one_list_spectrum(lam, seed):
    # a symmetric unitary w = O diag(lam) O^T and a second plane w' = O' diag O'^T
    n = len(lam)
    rng = np.random.default_rng(seed)
    O, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = (O * np.asarray(lam)) @ O.T
    wp = np.eye(n) if seed % 2 else (O * np.exp(1j * rng.uniform(-3, 3, n))) @ O.T
    spec = _pair_spectrum(w, wp)
    assert type(spec) is list and all(type(z) is complex for z in spec)
    oracle = np.linalg.eigvals(w @ wp.conj().T)
    assert spec == oracle.tolist()
    assert intersection_dim(w, wp) == band_dim_oracle(oracle)
    assert transversal(w, wp) == (band_dim_oracle(oracle) == 0)


def bits(z):
    # a complex number down to the sign of each zero
    return z.real.hex(), z.imag.hex()


def same_bits(got, want):
    return [bits(z) for z in got] == [bits(z) for z in want]


def test_one_by_one_spectrum_is_eigvals_bitwise_on_the_index_grid():
    # the lifts of the index grid: 150 angles on [-6, 6]
    circle = CircleManifold(1.0)
    lifts = [circle.cover_lift(th) for th in np.linspace(-6.0, 6.0, 150).tolist()]
    for a in lifts:
        for b in lifts:
            M = a.w @ b.w.conj().T
            want = np.linalg.eigvals(M).tolist()
            assert same_bits(_spectrum(M), want)
            assert same_bits(_pair_spectrum(a.w, b.w), want)


@st.composite
def entry(draw):
    # an entry with a signed-zero imaginary part, a negative real, one at the
    # band edge around 1, or a modulus past where LAPACK rescales the matrix
    kind = draw(st.sampled_from(["signed-zero", "negative", "band", "free"]))
    if kind == "signed-zero":
        return complex(draw(st.floats(-4.0, 4.0)), draw(st.sampled_from([0.0, -0.0])))
    if kind == "negative":
        return complex(-draw(st.floats(1e-3, 1e3)), draw(st.floats(-1.0, 1.0)))
    if kind == "band":  # |z - 1| = edge * 1e-9
        phase = draw(st.floats(-math.pi, math.pi))
        return 1.0 + draw(st.sampled_from(EDGE)) * BAND * cmath.rect(1.0, phase)
    return cmath.rect(10.0 ** draw(st.floats(-150.0, 150.0)), draw(st.floats(-math.pi, math.pi)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(entry(), entry())
def test_one_by_one_spectrum_is_eigvals_bitwise(z, zp):
    M, Mp = np.array([[z]]), np.array([[zp]])
    assert same_bits(_spectrum(M), np.linalg.eigvals(M).tolist())
    want = np.linalg.eigvals(M @ Mp.conj().T).tolist()
    assert same_bits(_pair_spectrum(M, Mp), want)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 0.0), complex(1.0, -math.inf)])
def test_non_finite_one_by_one_entry_raises_linalg_error(z):
    bad, good = LagrangianLift([[z]], 0.0), LagrangianLift([[1j]], math.pi / 2)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(np.linalg.LinAlgError):
            leray_index(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        principal_log_trace([[z]])

"""Dense linear algebra for quantum effects.

An effect is a Hermitian matrix with spectrum inside [0, 1].  Everything in
this package works on small dense complex matrices (dimension 8 or less in
practice), so all routines here lean on exact eigendecompositions rather than
iterative methods.  Functions are pure and returned effects are immutable;
values can be shared freely.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

# The LAPACK gufuncs that np.linalg.eigh, np.linalg.eigvalsh, np.linalg.solve
# (with a vector right-hand side) and np.linalg.qr dispatch to.  Their
# wrappers add about 5 us per call, as much as LAPACK's own work at n = 3 to
# 5, so the solver's hot loop and the Haar draws call the gufuncs directly.
# This is private numpy API, checked on numpy 2.4.6 only;
# tests/test_hermitian.py compares each with its wrapper.
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw
from numpy.linalg._umath_linalg import qr_reduced as _qr_reduced
from numpy.linalg._umath_linalg import solve1 as _solve1

# Tolerance ladder, tightest rung first: every spectral and exact-rule
# detection threshold in the package.  Only classify, is_scalar and
# is_projection let their caller override a rung (CLASSIFY_TOL).
HERMITICITY_TOL = 1e-12     # require_hermitian, so every validated input
RECONSTRUCTION_TOL = 1e-10  # an eigendecomposition reconstructs its input
EFFECT_SPECTRUM_TOL = 1e-9  # Effect: spectrum snapped onto [0, 1] within it
ORDER_TOL = 1e-9            # Loewner order; fast_path's rank-one peak test
DETECTION_TOL = 1e-9        # fast_path's scalar, projection, commutator and
                            # image-overlap tests; apply_ges_bijective's scalar
                            # test; interior_perturbation's invertibility test
CLASSIFY_TOL = 1e-7         # strata predicates (classify, is_scalar,
                            # is_projection, canonical_form); fast_path's rank

# Randomly generated effects keep interior eigenvalues at least this far from
# 0 and 1, so classifying generated data is never a coin flip.
INTERIOR_MARGIN = 1e-3


def require_tolerance(value: float, name: str = "tol", positive: bool = False) -> float:
    """Return a caller's tolerance if it is finite and >= 0 (> 0 if positive).

    Every public function that takes a tolerance (or eps) from its caller
    checks it here first: a NaN tolerance makes every ``dev > tol`` test
    False, and a negative one inverts order tests.
    """
    if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return value


class NotHermitian(ValueError):
    """Input matrix has a non-finite entry, or differs from its conjugate
    transpose beyond tolerance."""


class DimensionMismatch(ValueError):
    """Two inputs that must share a dimension do not."""


class SpectrumOutOfRange(ValueError):
    """An alleged effect has an eigenvalue outside [0, 1] beyond tolerance."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"eigenvalue {eigenvalue:.6g} lies outside [0, 1] "
                         f"(tolerance {EFFECT_SPECTRUM_TOL:g})")


def _as_square_array(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, an exactly Hermitian array; M may be a stack."""
    return (m + m.conj().mT) / 2.0


def require_hermitian(matrix) -> np.ndarray:
    """Check hermiticity entrywise (HERMITICITY_TOL); return the symmetrised copy.

    Symmetrising after the check means downstream eigensolvers always see an
    exactly Hermitian array, so tiny asymmetries cannot leak into spectra.
    """
    m = _as_square_array(matrix)
    dev = np.abs(m - m.conj().T).max()
    if not dev <= HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.6g} "
                           f"(tolerance {HERMITICITY_TOL:g})")
    return _hermitian_part(m)


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _clipped(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(clip(w, 0, 1)) V*, symmetrised: the spectrum clamped to [0, 1].

    Takes one decomposition or a stack of them.
    """
    m = (v * w.clip(0.0, 1.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def eig(matrix) -> EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues ascending."""
    return EigenDecomposition(*np.linalg.eigh(require_hermitian(matrix)))


class Effect:
    """Hermitian matrix with spectrum in [0, 1], validated on construction.

    Eigenvalues that stray outside [0, 1] by no more than EFFECT_SPECTRUM_TOL
    are snapped onto it (the stored array is then the clamped
    reconstruction), so effects built from honest data never carry -1e-15
    eigenvalue noise into later order comparisons.  Matrices whose spectrum
    is already inside [0, 1] are stored as given.  The array is marked
    read-only.  ``eigenvalues`` are the ascending eigenvalues of the stored
    matrix (read-only): kept from validation when the input is stored as
    given, else computed on first use.  ``eig``, the eigendecomposition
    (np.linalg.eigh of the stored matrix, read-only), is computed on first
    use; its eigenvalues have the bytes of ``eigenvalues``.
    """

    __slots__ = ("_matrix", "_eigenvalues", "_eig")

    def __init__(self, matrix):
        m = require_hermitian(matrix)
        w, v = np.linalg.eigh(m)
        if w[0] < -EFFECT_SPECTRUM_TOL:
            raise SpectrumOutOfRange(float(w[0]))
        if w[-1] > 1.0 + EFFECT_SPECTRUM_TOL:
            raise SpectrumOutOfRange(float(w[-1]))
        clamped = w[0] < 0.0 or w[-1] > 1.0
        if clamped:
            m = _clipped(w, v)
        else:
            w.flags.writeable = False
        m.flags.writeable = False
        self._matrix = m
        self._eigenvalues = None if clamped else w
        self._eig = None

    @classmethod
    def trusted(cls, matrix: np.ndarray) -> "Effect":
        """Wrap an array already known to be a valid effect.

        Skips validation and clamping; only for internal call sites that have
        just produced the matrix from vetted ingredients.
        """
        return cls._owned(np.array(matrix, dtype=complex))

    @classmethod
    def _owned(cls, m: np.ndarray) -> "Effect":
        """Effect.trusted without the copy: m is a complex array that its
        caller has just made and hands over.  m is marked read-only."""
        eff = object.__new__(cls)
        m.flags.writeable = False
        eff._matrix = m
        eff._eigenvalues = eff._eig = None
        return eff

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the stored matrix, computed at most once."""
        if self._eigenvalues is None:
            self._eigenvalues = self.eig.eigenvalues
        return self._eigenvalues

    @property
    def eig(self) -> EigenDecomposition:
        """Eigendecomposition of the stored matrix, computed at most once."""
        if self._eig is None:
            w, v = np.linalg.eigh(self._matrix)
            w.flags.writeable = v.flags.writeable = False
            self._eig = EigenDecomposition(w, v)
        return self._eig

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        m = self._matrix
        if dtype is not None and dtype != m.dtype:
            return m.astype(dtype)
        if copy:
            return m.copy()
        return m

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim}, trace={float(np.trace(self._matrix).real):.6g})"


def as_matrix(value) -> np.ndarray:
    """Underlying ndarray of an effect, or the input coerced to complex."""
    if isinstance(value, Effect):
        return value.matrix
    return np.asarray(value, dtype=complex)


def as_effect(value) -> Effect:
    """Coerce to a validated Effect; a given Effect passes through unchanged."""
    if isinstance(value, Effect):
        return value
    return Effect(value)


def _effect_of_dim(value, dim: int) -> Effect:
    """as_effect(value), which must have dimension dim."""
    e = as_effect(value)
    if e.dim != dim:
        raise DimensionMismatch(f"dimension mismatch: {dim} vs {e.dim}")
    return e


def clamped_effect(matrix) -> Effect:
    """Clamp all eigenvalues into [0, 1] and wrap the result.

    Unlike the Effect constructor this never raises on out-of-range spectra;
    use it to round a near-effect produced by a numerical solve onto the set
    of exact effects.
    """
    return Effect.trusted(_clipped(*np.linalg.eigh(require_hermitian(matrix))))


def identity_effect(dim: int) -> Effect:
    return Effect.trusted(np.eye(dim, dtype=complex))


def zero_effect(dim: int) -> Effect:
    return Effect.trusted(np.zeros((dim, dim), dtype=complex))


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """np.eye(n), read-only, shared by every call at dimension n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def orthocomplement(a) -> Effect:
    """The complementary effect I - A."""
    e = as_effect(a)
    return Effect._owned(_identity(e.dim) - e.matrix)


def trace(matrix) -> float:
    return float(np.trace(as_matrix(matrix)).real)


def spectrum(matrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(require_hermitian(matrix))


def operator_norm(matrix) -> float:
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    m = _as_square_array(matrix)
    return float(np.linalg.norm(m, 2))


def _order_gap(a, b) -> float:
    """Smallest eigenvalue of B - A, symmetrised: a difference of Hermitians."""
    d = _as_square_array(as_matrix(b) - as_matrix(a))
    return np.linalg.eigvalsh(_hermitian_part(d))[0]


def loewner_leq(a, b) -> bool:
    """Whether A <= B in the positive semidefinite order, up to ORDER_TOL.

    True iff the smallest eigenvalue of B - A is at least -ORDER_TOL.
    """
    return bool(_order_gap(a, b) >= -ORDER_TOL)


def strictly_less(a, b) -> bool:
    """Whether B - A is positive definite with margin strictly above ORDER_TOL."""
    return bool(_order_gap(a, b) > ORDER_TOL)


def _psd_kernel(m: np.ndarray) -> np.ndarray:
    """Frobenius projection of a Hermitian array onto the PSD cone, unchecked.

    PSD input is returned as is.  The caller vouches that m is Hermitian;
    the result is Hermitian up to rounding.  Call it under _lapack_checked,
    or a LAPACK failure comes back as NaN.
    """
    w, v = _eigh_lo(m)
    if w[0] >= 0.0:
        return m
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _raise_lapack_failure(err, flag):
    raise np.linalg.LinAlgError("LAPACK call failed: no convergence or a singular matrix")


def _lapack_checked() -> np.errstate:
    """Floating-point state in which a failed _eigh_lo, _eigvalsh_lo or _solve1 raises.

    A gufunc whose LAPACK call does not converge, or meets a singular
    matrix, fills its output with NaN and sets the invalid flag; this turns
    the flag into LinAlgError, as np.linalg does.  Use it as a context
    manager or a function decorator.
    """
    return np.errstate(call=_raise_lapack_failure, invalid="call")


def psd_part(matrix) -> np.ndarray:
    """Projection onto the positive semidefinite cone in Frobenius norm.

    Clips negative eigenvalues to zero.  Idempotent at the 1e-12 level; PSD
    inputs are returned symmetrised but otherwise unchanged.
    """
    m = require_hermitian(matrix)
    with _lapack_checked():
        out = _psd_kernel(m)
    return _hermitian_part(out)


def sqrt_psd(matrix) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-12, 0) are treated as zero.
    """
    m = require_hermitian(matrix)
    w, v = np.linalg.eigh(m)
    if w[0] < -1e-12:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w[0]:.6g}")
    out = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return _hermitian_part(out)


def direct_sum(blocks: Sequence) -> np.ndarray:
    """Block-diagonal matrix assembled from Hermitian blocks."""
    mats = [as_matrix(b) for b in blocks]
    if not mats:
        raise ValueError("direct_sum needs at least one block")
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out


def _conjugate(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U M U*, symmetrised, unchecked; M may be a stack of matrices.

    The caller vouches that M is an effect and U is unitary: conjugate
    checks both on every call, a map spec checks its unitary once when it
    is built.
    """
    return _hermitian_part(u @ m @ u.conj().T)


def conjugate(a, unitary, transpose: bool = False) -> Effect:
    """Map A to U A U* (optionally transposing A first).

    The transpose-then-conjugate form gives the antiunitary counterpart of
    the same symmetry.  A is validated as an effect and the unitary is
    checked to 1e-10 on every call; map specs hold a vetted unitary and
    skip the re-check.
    """
    e = as_effect(a)
    u = require_unitary(unitary)
    return Effect._owned(_conjugate(e.matrix.T if transpose else e.matrix, u))


def require_unitary(u) -> np.ndarray:
    """Check ||U*U - I||_F <= 1e-10 and return U as a complex array."""
    m = _as_square_array(u)
    dev = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
    if not dev <= 1e-10:
        raise ValueError(f"matrix is not unitary: ||U*U - I|| = {dev:.6g}")
    return m


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization")


def _haar_stack(dim: int, count: int, rng: np.random.Generator,
                interior: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """count Haar unitaries, drawn from rng in turn, each after `interior`
    uniforms on [0, 1) if given (returned as a (count, interior) array).

    Each is Q of a complex Gaussian matrix's QR with R's diagonal phases
    divided out, so it is Haar and unitary by construction.  All count
    matrices are factored by one in-place call of np.linalg.qr's gufuncs.
    """
    z = np.empty((count, dim, dim), dtype=complex)
    uniform = None if interior is None else np.empty((count, interior))
    for i in range(count):
        if uniform is not None:
            uniform[i] = rng.random(interior)
        z[i] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    with np.errstate(call=_raise_qr_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        tau = _qr_r_raw(z, signature="D->D")
        q = _qr_reduced(z, tau, signature="DD->D")
    d = np.diagonal(z, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :], uniform


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: the count-1 case of _haar_stack."""
    return _haar_stack(dim, 1, _rng(seed))[0][0]


def _random_effects(dim: int, count: int, stratum: tuple[int, int] | None,
                    rng: np.random.Generator) -> np.ndarray:
    """Stack with the bytes, and leaving rng in the state, of count calls
    random_effect(dim, stratum, seed=rng); only the draws are serial."""
    if dim < 1:
        raise ValueError("dim must be positive")
    p, q = (0, 0) if stratum is None else stratum
    if p < 0 or q < 0 or p + q > dim:
        raise ValueError(f"stratum {stratum} does not fit dimension {dim}")
    u, uniform = _haar_stack(dim, count, rng, dim - p - q)
    lo, hi = INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN
    vals = np.concatenate([np.ones((count, p)), lo + (hi - lo) * uniform,
                           np.zeros((count, q))], axis=1)
    return _hermitian_part((u * vals[:, None, :]) @ u.conj().mT)


def random_effect(dim: int, stratum: tuple[int, int] | None = None, *, seed) -> Effect:
    """Random effect, optionally with a prescribed eigenvalue profile.

    ``stratum=(p, q)`` fixes the multiplicity of eigenvalue 1 to p and of
    eigenvalue 0 to q; the remaining eigenvalues are drawn uniformly from the
    open interval, at least INTERIOR_MARGIN away from both ends.  Without a
    stratum all eigenvalues are interior, i.e. the effect lands in the (0, 0)
    stratum.  It is the count-1 case of the stacked draw _random_effects.
    """
    return Effect._owned(_random_effects(dim, 1, stratum, _rng(seed))[0])


def random_projection(dim: int, rank: int, seed) -> Effect:
    """Random rank-r orthogonal projection, Haar-uniform over subspaces."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} does not fit dimension {dim}")
    u = random_unitary(dim, _rng(seed))
    cols = u[:, :rank]
    m = cols @ cols.conj().T
    return Effect.trusted(_hermitian_part(m))

"""Coexistence of pairs of effects: exact rules plus a certified margin solver.

Effects A and B coexist (are jointly measurable) exactly when B splits as
M + N with 0 <= M <= A and 0 <= N <= I - A.  Substituting N = B - M turns
this into membership of M in the intersection of four spectral order
intervals, {M >= 0}, {M <= A}, {M <= B} and {M >= K} with K = A + B - I.
When no exact structural rule settles the pair, closed-form corner
candidates are tried, and then a log-barrier method computes the margin

    t* = max t  such that  M - tI, A - M - tI, B - M - tI, M - K - tI >= 0,

the joint-measurability semidefinite program (Wolf, Perez-Garcia and
Fernandez, PRL 103, 230402 (2009)).  The pair coexists exactly when
t* >= 0.  Both definite answers of the solver carry a certificate that can
be checked without trusting it: a witness M whose residual is below
FEAS_TOL, or a dual point (Z2, Z3, Z4) that verify_dual accepts, which
proves t* < 0 by weak duality (Boyd and Vandenberghe, Convex Optimization,
sections 5.8 and 11).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .hermitian import (
    CLASSIFY_TOL,
    DETECTION_TOL,
    HERMITICITY_TOL,
    ORDER_TOL,
    Effect,
    as_effect,
    as_matrix,
    clamped_effect,
    direct_sum,
    random_effect,
    require_tolerance,
    sqrt_psd,
    _clipped,
    _converged,
    _effect_of_dim,
    _eigh_lo,
    _eigvalsh_lo,
    _identity,
    _lapack_checked,
    _psd_kernel,
    _rng,
    _solve1,
)

# Verdict tolerances, fixed so that each witness and dual decide returns
# passes its verifier at CERT_TOL: ORDER_TOL <= FEAS_TOL < CERT_TOL <
# SEP_TOL.  A margin t* certified to lie between -SEP_TOL and -FEAS_TOL is
# reported as Indeterminate rather than rounded to a verdict.  MAX_STEPS is
# the Newton-step budget, read by _barrier at each call: the acceptance
# streams (dims 2-5) take at most 11 steps, and rank-one pairs whose sum
# peaks within 1e-7 to 1e-2 of 1 at most 27; at dim 8 the counts were 13
# and 26.
FEAS_TOL = 1e-7
SEP_TOL = 1e-5
CERT_TOL = 1e-6
MAX_STEPS = 200

# Barrier path: the iterate starts at the meet of A and B with t _START_GAP
# below the smallest slack, and the weight s on the margin grows by
# _PATH_FACTOR whenever the Newton decrement at the current iterate is below
# _CENTRED, that is when the iterate is close enough to the central point of
# the current s.  Of the factors 20, 50 and 100 and the gaps 0.01, 0.1 and
# 1, only 50 and 0.1 kept the largest step count within one of the best on
# every stream they were tuned on (CHANGES.md has the sweep).  The line
# search's first trial goes _BOUNDARY of the way to the boundary of the
# feasible set (or takes the full step), and a trial is accepted once the
# barrier falls by _ARMIJO times the step times the squared decrement, else
# the step shrinks by _BACKTRACK.  A step shorter than _MIN_STEP counts as
# numerical failure.
_PATH_FACTOR = 50.0
_START_GAP = 0.1
_CENTRED = 0.5
_BOUNDARY = 0.99
_ARMIJO = 0.25
_BACKTRACK = 0.5
_MIN_STEP = 1e-10


class Verdict(str, Enum):
    COEXISTENT = "Coexistent"
    NOT_COEXISTENT = "NotCoexistent"
    INDETERMINATE = "Indeterminate"


class Reason(str, Enum):
    SCALAR_RULE = "ScalarRule"
    PROJECTION_RULE = "ProjectionRule"
    COMMUTE_RULE = "CommuteRule"
    RANK_ONE_RULE = "RankOneRule"
    FEASIBILITY_SOLVER = "FeasibilitySolver"
    BLOCKWISE = "Blockwise"


@dataclass(frozen=True)
class CoexistenceVerdict:
    """How decide settled a pair.

    ``iterations`` counts the solver's Newton steps taken before the Newton
    system its certificate was read from (0 for the exact rules and for a
    corner candidate).  ``dual`` is the solver's certificate (Z2, Z3, Z4)
    for verify_dual, normalised so that the traces of Z1 = Z2 + Z3 - Z4,
    Z2, Z3 and Z4 sum to 1; it is None unless the solver proved the pair
    (or, in decide_blockwise, one block pair) NotCoexistent.  The Z_i may
    be indefinite: verify_dual charges for their negative parts, and the
    bound it verifies, penalty included, is below -SEP_TOL.
    """

    verdict: Verdict
    reason: Reason
    witness: tuple[Effect, Effect] | None
    residual: float
    iterations: int
    dual: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False)

    @property
    def coexistent(self) -> bool:
        return self.verdict is Verdict.COEXISTENT

    @property
    def definite(self) -> bool:
        return self.verdict is not Verdict.INDETERMINATE


class InvalidCertificate(ValueError):
    """A coexistence certificate violates one of its defining constraints."""

    def __init__(self, constraint: str, margin: float):
        self.constraint = constraint
        self.margin = margin
        super().__init__(f"certificate violates {constraint} by {margin:.6g}")


def _coexistent(reason: Reason, m, n, residual: float = 0.0,
                iterations: int = 0) -> CoexistenceVerdict:
    """A Coexistent verdict whose witness is (M, N) clamped onto the effects.

    M and N are symmetrised, not validated again: they are built from
    validated effects by eigensolvers under _lapack_checked, which raise
    rather than return NaN, and the barrier ends Indeterminate once its
    slack spectrum is not positive (NaN included).  One eigh clamps the
    stack of their Hermitian parts; each witness has the bytes
    clamped_effect would give it.
    """
    herm = np.empty((2, *m.shape), dtype=complex)
    for x, out in zip((m, n), herm):
        np.add(np.conjugate(x.T, out=out), x, out=out)
    herm /= 2.0  # (X + X*)/2, as _hermitian_part forms it
    with _lapack_checked():
        w, v = _eigh_lo(herm)
    mc, nc = _clipped(w, v)
    witness = (Effect._owned(mc), Effect._owned(nc))
    return CoexistenceVerdict(Verdict.COEXISTENT, reason, witness,
                              float(residual), iterations)


def _not_coexistent(reason: Reason, residual: float,
                    iterations: int = 0) -> CoexistenceVerdict:
    return CoexistenceVerdict(Verdict.NOT_COEXISTENT, reason, None,
                              float(residual), iterations)


# ---------------------------------------------------------------------------
# Exact fast paths


def fast_path(a, b) -> CoexistenceVerdict | None:
    """Exact structural rules, tried in priority order; None if none apply.

    (1) a scalar effect coexists with everything; (2) a projection coexists
    with exactly the effects it commutes with; (3) commuting effects coexist;
    (4) two rank-one effects with distinct images coexist exactly when their
    sum is still an effect.  Each positive verdict carries a closed-form
    witness.  The preconditions are tested inline on each effect's cached
    eigenvalues, read once, as is_scalar and is_projection test them at
    DETECTION_TOL and as classify counts rank one at CLASSIFY_TOL; rule 4
    reads the top eigenvectors of a rank-one pair only.  Its peak test
    allows ORDER_TOL, well inside what verify_mn accepts.
    """
    ea = as_effect(a)
    eb = _effect_of_dim(b, ea.dim)
    am, bm = ea.matrix, eb.matrix
    wa, wb = ea.eigenvalues, eb.eigenvalues
    la, lb = wa.tolist(), wb.tolist()  # ascending

    # Rule 1: scalars, whose spectra spread by at most DETECTION_TOL; t is
    # the mean eigenvalue.  tI admits the witness M = tB, N = (1-t)B; for
    # scalar B the mirrored split of B = tI itself is M = tA, N = t(I-A).
    if la[-1] - la[0] <= DETECTION_TOL:
        t = float(wa.sum() / wa.size)
        return _coexistent(Reason.SCALAR_RULE, t * bm, (1.0 - t) * bm)
    if lb[-1] - lb[0] <= DETECTION_TOL:
        t = float(wb.sum() / wb.size)
        return _coexistent(Reason.SCALAR_RULE, t * am, t * (_identity(ea.dim) - am))

    # Rule 2: projections (every eigenvalue within DETECTION_TOL of 0 or 1)
    # coexist exactly with their commutant.  Rule 3: commuting effects
    # always coexist.  Both witnesses are the meet.
    comm = _frobenius(am @ bm - bm @ am)
    projection = any(all(x <= DETECTION_TOL or x >= 1.0 - DETECTION_TOL for x in ls)
                     for ls in (la, lb))
    if comm <= DETECTION_TOL:
        m = _meet(am, bm)
        reason = Reason.PROJECTION_RULE if projection else Reason.COMMUTE_RULE
        return _coexistent(reason, m, bm - m)
    if projection:
        return _not_coexistent(Reason.PROJECTION_RULE, comm)

    # Rule 4: rank-one pair with distinct images.  Not scalar, so dim >= 2.
    if la[-2] <= CLASSIFY_TOL < la[-1] and lb[-2] <= CLASSIFY_TOL < lb[-1]:
        pa, pb = ea.eig.eigenvectors[:, -1], eb.eig.eigenvectors[:, -1]
        overlap = abs(np.vdot(pa, pb)) ** 2
        if 1.0 - overlap >= DETECTION_TOL:
            peak = float(_converged(_eigvalsh_lo(am + bm))[-1])
            if peak <= 1.0 + ORDER_TOL:
                # A + B <= I makes M = 0, N = B a valid split.
                return _coexistent(Reason.RANK_ONE_RULE,
                                   np.zeros_like(am), bm)
            return _not_coexistent(Reason.RANK_ONE_RULE, peak - 1.0)

    return None


def _frobenius(d: np.ndarray) -> float:
    """np.linalg.norm(d) of a complex array, by its own formula: the same bytes."""
    d = d.ravel()
    re, im = d.real, d.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@_lapack_checked()
def _meet(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """(A + B - |A - B|)/2, the eigenvalue-wise minimum of commuting A and B.

    For any Hermitian pair A - M and B - M are the positive parts of A - B
    and B - A, so M <= A and M <= B however the pair fails to commute.
    """
    w, v = _eigh_lo(am - bm)
    absd = (v * np.abs(w)) @ v.conj().T
    return (am + bm - absd) / 2.0


# ---------------------------------------------------------------------------
# Margin solver: corner candidates, then a log-barrier method


# The four constraint matrices X, A - X, B - X and X - K of an iterate X are
# base + _SIGNS * X, with base = (0, A, B, -K) stacked once per solve.
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0]).reshape(4, 1, 1)


def _residual(x, base) -> float:
    """Largest violation of the four constraints at x, or 0 if none."""
    lo = _eigvalsh_lo(base + _SIGNS * x).min()
    return max(0.0, float(-lo))


def _corner_witness(am, bm, k, base):
    """Closed-form candidates that certify easy instances without iterating.

    M = 0 is feasible whenever A + B <= I, M = A whenever A <= B (and
    symmetrically M = B), and the positive part K+ of K = A + B - I covers
    pairs crowding the identity.  A and B are effects, so of each
    candidate's four slacks only these can be violated: -K for M = 0, B - A
    for M = A, A - B for M = B, and A - K+ and B - K+ for M = K+.  One
    stacked eigvalsh of K, B - A, A - K+ and B - K+ screens all four.  If
    none is confirmed, the fifth candidate is the meet (A + B - |A - B|)/2
    (see _meet): its slacks A - M and B - M are PSD for every pair, so one
    stacked eigvalsh of M and M - K screens it.  The first candidate that
    passes its screen is confirmed against the full residual, so a hit is
    an exact certificate, not a heuristic, and the first candidate whose
    residual is below FEAS_TOL is the one returned.  It also settles pairs
    whose margin t* is 0, which the barrier's strictly feasible iterates
    only approach from below.  Returns (M, residual) on a hit and (meet,
    None) on a miss, the meet being the barrier's starting point.  Both
    screens fill one buffer in place, and M = 0 is base[0].
    """
    kp = _psd_kernel(k)
    screen = np.empty_like(base)
    screen[0] = k
    np.subtract(bm, am, out=screen[1])
    np.subtract(base[1:3], kp, out=screen[2:])  # A - K+, B - K+
    lo = _eigvalsh_lo(screen)
    screens = (lo[0, -1] <= FEAS_TOL, lo[1, 0] >= -FEAS_TOL,
               lo[1, -1] <= FEAS_TOL, min(lo[2, 0], lo[3, 0]) >= -FEAS_TOL)
    for cand, passes in zip((base[0], am, bm, kp), screens):
        if passes:
            r = _residual(cand, base)
            if r < FEAS_TOL:
                return cand, r
    meet = _meet(am, bm)
    screen[0] = meet
    np.subtract(meet, k, out=screen[1])
    if _eigvalsh_lo(screen[:2])[:, 0].min() >= -FEAS_TOL:
        r = _residual(meet, base)
        if r < FEAS_TOL:
            return meet, r
    return meet, None


@functools.lru_cache(maxsize=8)
def _coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and c that map real coordinates x to Hermitian X and back.

    The coordinates are those of the orthonormal basis of the n x n
    Hermitian matrices under tr(XY) made of the E_jj, (E_jk + E_kj)/sqrt 2
    for j < k and i(E_jk - E_kj)/sqrt 2 for j > k, laid out as an n x n
    array: X = V + V* with V = w * x, and x = Re(c * X), c = 2 conj(w).
    """
    r = 1.0 / math.sqrt(2.0)
    w = np.full((n, n), r, dtype=complex)
    w[np.tril_indices(n, -1)] = 1j * r
    np.fill_diagonal(w, 0.5)
    c = 2.0 * w.conj()
    w.flags.writeable = c.flags.writeable = False
    return w, c


def _hessian(wi, wsq, inv_w) -> np.ndarray:
    """Hessian of the barrier's log det terms in the coordinates (x, t).

    wi stacks the W_i = S_i^-1, wsq their squares and inv_w their
    eigenvalues.  Row (p, q) holds the coordinates of sum_i W_i E_pq W_i =
    V + V*, where V = w_pq Q_pq (w from _coordinates) and Q_pq[x, y] =
    sum_i W_i[x, p] W_i[q, y]; one outer product of the stacked W_i gives
    every Q_pq.  O(n^4) time and memory.
    """
    n = wi.shape[-1]
    weights, coords = _coordinates(n)
    flat = wi.reshape(4, n * n)
    block = np.multiply(
        (flat.T @ flat).reshape(n, n, n, n).transpose(1, 2, 0, 3),
        weights[:, :, None, None], out=np.empty((n, n, n, n), dtype=complex))
    block += block.swapaxes(2, 3).conj()
    block *= coords
    hess = np.empty((n * n + 1, n * n + 1))
    hess[:-1, :-1] = block.real.reshape(n * n, n * n)
    hess[:-1, -1] = hess[-1, :-1] = (
        coords * (wsq[1] + wsq[2] - wsq[0] - wsq[3])).real.ravel()
    hess[-1, -1] = (inv_w * inv_w).sum()
    return hess


def _barrier(am, bm, base, start):
    """Newton steps with a line search along the central path of the margin problem.

    Minimises -s t - sum_i log det S_i over (M, t), where S_i = C_i +
    sigma_i M - tI are the four slacks (C = 0, A, B, -K; sigma = +1, -1,
    -1, +1), for a weight s that grows by _PATH_FACTOR each time the
    iterate is centred.  It starts at M = start, the meet that
    _corner_witness returns on a miss (it meets M <= A and M <= B, and
    certifies every commuting pair), with t _START_GAP below the smallest
    eigenvalue of the C_i + sigma_i M.  Every iterate is strictly
    feasible, so t is a lower bound on the margin t*.  The Newton system
    is real, of size n^2 + 1 in the coordinates of _coordinates plus t;
    building it (_hessian) takes O(n^4) time and memory, solving it
    O(n^6) time.

    One stacked eigh of the slacks S_i = V_i diag(w_i) V_i* per iterate
    gives W_i = S_i^-1 and U_i = V_i diag(w_i^-1/2).  With mu the
    eigenvalues of G_i = U_i* dS_i U_i for the Newton step dS_i, the
    barrier along the step is -s a dt - sum log(1 + a mu) up to a constant,
    so the backtracking line search (Boyd and Vandenberghe, section 9.2)
    needs no eigh per trial, and the slacks are updated in place; M =
    S_1 + tI is formed only where it or its residual is returned.  The same
    G_i give the Newton-corrected dual Z_i = W_i - W_i dS_i W_i = U_i (I -
    G_i) U_i*: it meets the dual's equality constraints up to the Newton
    solve's rounding, and it is PSD only when every mu is at most 1.  Each
    step returns at its first certificate: M at the line search's first
    trial, confirmed by its residual once that trial's t is >= 0, or the
    dual, tested on every step by verify_dual at SEP_TOL, whose penalty for
    negative parts keeps an indefinite dual's bound sound.  The
    Indeterminate exit needs a PSD dual, so every mu at most 1.

    Returns (verdict, M or None, residual, Newton steps, dual or None).
    Runs under _lapack_checked, through _solve; a numerically singular
    Newton system ends it Indeterminate.
    """
    n = am.shape[0]
    eye = _identity(n)
    weights, coords = _coordinates(n)
    slacks = base + _SIGNS * start
    t = _eigvalsh_lo(slacks).min() - _START_GAP
    slacks -= t * eye
    s = None
    steps = 0

    def end(verdict, dual=None):  # a result without M, at the current iterate
        return verdict, None, _residual(slacks[0] + t * eye, base), steps, dual

    while True:
        w, v = _eigh_lo(slacks)
        low = w.min()
        if not low > 0.0:
            # The line search keeps the slacks positive definite in exact
            # arithmetic; the eigensolver can no longer resolve them.
            return end(Verdict.INDETERMINATE)
        lower = low + t  # the smallest eigenvalue of the C_i + sigma_i M
        if lower > -FEAS_TOL:
            m = slacks[0] + t * eye
            r = _residual(m, base)
            if r < FEAS_TOL:
                return Verdict.COEXISTENT, m, r, steps, None

        # Newton system in the coordinates (x, t) of (M, t).
        inv_w = 1.0 / w
        u = v * np.sqrt(inv_w)[:, None, :]
        uh = u.conj().swapaxes(1, 2)
        wi = u @ uh  # W_i = S_i^-1
        wsq = wi @ wi
        hess = _hessian(wi, wsq, inv_w)
        grad = np.empty(n * n + 1)
        grad[:-1] = (coords * (wi[1] + wi[2] - wi[0] - wi[3])).real.ravel()
        traces = inv_w.sum(axis=1)
        if s is None:
            s = traces.sum()  # the start's gradient in t vanishes
        while True:
            grad[-1] = traces.sum() - s
            try:
                delta = _solve1(hess, -grad, signature="dd->d")
                decrement_sq = -grad @ delta
                if not math.isfinite(decrement_sq):
                    raise np.linalg.LinAlgError("Newton system has no finite solution")
            except np.linalg.LinAlgError:
                # Only a Hessian singular to working precision (smallest
                # eigenvalue <= size * eps * largest) ends Indeterminate.
                h = _eigvalsh_lo(hess)
                if h[0] > hess.shape[0] * np.finfo(float).eps * h[-1]:
                    raise
                return end(Verdict.INDETERMINATE)
            if decrement_sq >= _CENTRED * _CENTRED:
                break
            s *= _PATH_FACTOR
        dm = weights * delta[:-1].reshape(n, n)
        dm += dm.conj().T
        dt = delta[-1]
        dslacks = _SIGNS * dm - dt * eye
        g = uh @ dslacks @ u
        mu = _eigvalsh_lo(g)
        mu_low, mu_high = mu.min(), mu.max()

        # The line search's first trial, just inside the boundary where
        # 1 + a mu = 0; a witness there ends the solve one eigh early.
        step = min(1.0, _BOUNDARY / -mu_low) if mu_low < 0.0 else 1.0
        if t + step * dt >= 0.0:
            m = slacks[0] + t * eye + step * dm
            r = _residual(m, base)
            if r < FEAS_TOL:
                return Verdict.COEXISTENT, m, r, steps, None

        z = wi[1:] - u[1:] @ g[1:] @ uh[1:]  # Z2, Z3, Z4
        norm = 2.0 * z[:2].trace(axis1=1, axis2=2).real.sum()
        value = np.vdot(z, base[1:]).real / norm  # base[1:] = A, B, -K
        if value <= -SEP_TOL:
            dual = z / norm
            dual.flags.writeable = False
            if verify_dual(am, bm, *dual, tol=SEP_TOL):
                return end(Verdict.NOT_COEXISTENT, tuple(dual))
        elif mu_high <= 1.0 and lower > -SEP_TOL and value < -FEAS_TOL:
            # t* lies between -SEP_TOL and -FEAS_TOL: neither certificate
            # can exist at these tolerances.
            return end(Verdict.INDETERMINATE)
        if steps >= MAX_STEPS:
            return end(Verdict.INDETERMINATE)

        # Backtracking from the first trial.
        while s * step * dt + np.log1p(step * mu).sum() < _ARMIJO * step * decrement_sq:
            step *= _BACKTRACK
            if step < _MIN_STEP:
                return end(Verdict.INDETERMINATE)
        slacks += step * dslacks
        t += step * dt
        steps += 1


@_lapack_checked()
def _solve(am, bm):
    """Corner candidates, then the barrier method, on one ordered pair."""
    n = am.shape[0]
    k = am + bm - _identity(n)
    base = np.zeros((4, n, n), dtype=complex)  # filled as (0, A, B, -K)
    base[1], base[2], base[3] = am, bm, -k
    m, residual = _corner_witness(am, bm, k, base)
    if residual is not None:
        return Verdict.COEXISTENT, m, residual, 0, None
    return _barrier(am, bm, base, m)


def decide(a, b, *, fast_paths: bool = True) -> CoexistenceVerdict:
    """Decide coexistence of two effects of equal dimension.

    Exact fast paths are consulted first unless disabled.  The solver
    returns Coexistent only with a witness pair (M, N), and NotCoexistent
    only with a dual (Z2, Z3, Z4) that verify_dual accepts.  It reports
    Indeterminate when it certifies that the margin t* lies between -SEP_TOL
    and -FEAS_TOL, where neither certificate can exist, when it has taken
    MAX_STEPS Newton steps, or when its Newton system is singular or its
    line search cannot keep the iterate strictly feasible.  The tolerances
    and the budget are module constants, not arguments: no setting yields a
    witness or a dual that verify_mn or verify_dual rejects.

    A Newton step solves a dense real system of size n^2 + 1: O(n^6) time
    and O(n^4) memory, measured at about 0.3 ms for n = 8, the harness's
    largest dimension, and 70 ms with 43 MB of arrays for n = 32.  Pairs
    that reach the barrier take a median of 2 and at most 11 steps on the
    acceptance streams (13 at dim 8), and up to 27 on rank-one pairs whose
    margin lies within 1e-2 of 0, so dimensions up to about 32 are
    practical.

    The solver's iteration path depends on argument order, so the pair is
    put into a canonical order first; this makes decide(A, B) and
    decide(B, A) return identical verdicts, residuals and step counts.
    """
    ea = as_effect(a)
    eb = _effect_of_dim(b, ea.dim)

    if fast_paths:
        hit = fast_path(ea, eb)
        if hit is not None:
            return hit

    # The smaller trace goes first; the bytes, read only on a tie, break it.
    first, second = ea.matrix, eb.matrix
    ta, tb = first.trace().real, second.trace().real
    swapped = tb < ta or (tb == ta and second.tobytes() < first.tobytes())
    if swapped:
        first, second = second, first

    verdict, m_raw, residual, steps, dual = _solve(first, second)

    if verdict is Verdict.COEXISTENT:
        # A witness M for the solved orientation is also one for the caller's
        # orientation: M <= both effects and M >= A+B-I are symmetric in the
        # pair, and N is recomputed as B - M against the caller's B.
        return _coexistent(Reason.FEASIBILITY_SOLVER, m_raw,
                           eb.matrix - m_raw, residual, steps)
    if dual is not None and swapped:
        # Z2 pairs with the first effect and Z3 with the second; K is symmetric.
        dual = (dual[1], dual[0], dual[2])
    return CoexistenceVerdict(verdict, Reason.FEASIBILITY_SOLVER, None,
                              float(residual), steps, dual)


def decide_blockwise(a_blocks, b_blocks) -> CoexistenceVerdict:
    """Decide coexistence of two block-diagonal effects block by block.

    The direct sums coexist exactly when every block pair does.  A single
    NotCoexistent block settles the question (remaining blocks are skipped);
    otherwise any Indeterminate block makes the whole answer Indeterminate.
    When the solver proved that block NotCoexistent, the answer's dual is
    the block's dual padded with zero blocks, a dual for the direct sums.
    """
    if len(a_blocks) != len(b_blocks):
        raise ValueError("block lists must have equal length")
    if not a_blocks:
        raise ValueError("need at least one block")

    results = []
    iterations = 0
    for i, (blk_a, blk_b) in enumerate(zip(a_blocks, b_blocks)):
        res = decide(blk_a, blk_b)
        iterations += res.iterations
        if res.verdict is Verdict.NOT_COEXISTENT:
            dual = None
            if res.dual is not None:
                dual = tuple(_padded(z, i, a_blocks) for z in res.dual)
            return CoexistenceVerdict(Verdict.NOT_COEXISTENT, Reason.BLOCKWISE,
                                      None, res.residual, iterations, dual)
        results.append(res)

    residual = max(res.residual for res in results)
    if any(res.verdict is Verdict.INDETERMINATE for res in results):
        return CoexistenceVerdict(Verdict.INDETERMINATE, Reason.BLOCKWISE,
                                  None, residual, iterations)

    m_blocks = [res.witness[0] for res in results]
    n_blocks = [res.witness[1] for res in results]
    witness = (Effect._owned(direct_sum(m_blocks)), Effect._owned(direct_sum(n_blocks)))
    return CoexistenceVerdict(Verdict.COEXISTENT, Reason.BLOCKWISE, witness,
                              residual, iterations)


def _padded(z: np.ndarray, index: int, blocks) -> np.ndarray:
    """z in place of blocks[index], zero blocks elsewhere; read-only."""
    out = direct_sum([z if j == index else np.zeros_like(as_matrix(blk))
                      for j, blk in enumerate(blocks)])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Certificates


def _check_psd(names, stack: np.ndarray):
    """Check each matrix of the stack is PSD at CERT_TOL; the first to fail raises.

    A non-finite matrix fails with margin NaN.  The finite ones before it go
    through one stacked _eigvalsh_lo of their Hermitian parts, formed as
    X/2 + X*/2 so that finite entries near the float limit cannot overflow.
    If LAPACK fails, its NaN eigenvalues fail the check with margin NaN.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    checked = len(stack) if finite.all() else int(finite.argmin())
    herm = stack[:checked]
    lows = _eigvalsh_lo(herm / 2.0 + herm.conj().swapaxes(1, 2) / 2.0)[:, 0].tolist()
    for name, lo in zip(names, lows):
        if not lo >= -CERT_TOL:
            raise InvalidCertificate(f"{name} >= 0", -lo)
    if checked < len(stack):
        raise InvalidCertificate(f"{names[checked]} >= 0", math.nan)


def _check_close(name: str, x: np.ndarray, y: np.ndarray):
    dev = _frobenius(x - y)
    if not dev <= CERT_TOL:
        raise InvalidCertificate(name, dev)


def _check_parts(names, parts):
    """A certificate's parts as arrays, after checking each has A's shape
    and that A and B are Hermitian.

    A part that does not hold numbers (see as_matrix) fails with margin NaN.
    A must be square.  A part of another shape fails the certificate with
    margin NaN before any arithmetic, so numpy never broadcasts it.  A or B
    fails with its entrywise deviation from Hermitian if that exceeds
    HERMITICITY_TOL (NaN if not finite); an Effect is Hermitian as built.
    """
    try:
        mats = [as_matrix(x) for x in parts]
    except ValueError:
        raise InvalidCertificate("numeric entries", math.nan) from None
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise InvalidCertificate(f"shape of {names[0]} = (n, n), n >= 1", math.nan)
    for name, x in zip(names[1:], mats[1:]):
        if x.shape != shape:
            raise InvalidCertificate(f"shape of {name} = {shape}", math.nan)
    for name, part, x in zip(names[:2], parts, mats):
        if not isinstance(part, Effect):
            with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail
                dev = float(np.abs(x - x.conj().T).max())
            if not dev <= HERMITICITY_TOL:
                raise InvalidCertificate(f"{name} Hermitian", dev)
    return mats


def _check_mn(a, b, m, n):
    am, bm, mm, nm = _check_parts("ABMN", (a, b, m, n))
    slacks = np.empty((4, *am.shape), dtype=complex)
    slacks[0], slacks[1] = mm, nm
    np.subtract(am, mm, out=slacks[2])
    np.subtract(_identity(am.shape[0]), am, out=slacks[3])
    slacks[3] -= nm
    _check_psd(("M", "N", "A - M", "(I - A) - N"), slacks)
    _check_close("M + N = B", np.add(mm, nm, out=slacks[0]), bm)
    return am, bm, mm, nm


def _check_efg(a, b, e, f, g):
    am, bm, em, fm, gm = _check_parts("ABEFG", (a, b, e, f, g))
    slacks = np.empty((4, *am.shape), dtype=complex)
    slacks[0], slacks[1], slacks[2] = em, fm, gm
    np.subtract(_identity(am.shape[0]), em, out=slacks[3])
    slacks[3] -= fm
    slacks[3] -= gm
    _check_psd(("E", "F", "G", "I - (E + F + G)"), slacks)
    _check_close("E + G = A", np.add(em, gm, out=slacks[0]), am)
    _check_close("F + G = B", np.add(fm, gm, out=slacks[1]), bm)
    return am, bm, em, fm, gm


def mn_to_efg(m, n, a, b):
    """Convert a split certificate (M, N) into a triple (E, F, G).

    The triple satisfies A = E + G, B = F + G with E + F + G an effect;
    concretely (E, F, G) = (A - M, N, M).  Raises InvalidCertificate if the
    input fails its constraints at CERT_TOL.  Returns plain Hermitian arrays
    so that the round-trip with efg_to_mn is exact to machine precision.
    """
    am, bm, mm, nm = _check_mn(a, b, m, n)
    return am - mm, nm, mm


def efg_to_mn(e, f, g, a, b):
    """Convert a triple certificate (E, F, G) into the split form (M, N).

    Inverse of mn_to_efg: returns (G, F), after checking (E, F, G) at CERT_TOL.
    """
    _, _, _, fm, gm = _check_efg(a, b, e, f, g)
    return gm, fm


def _check_dual(a, b, z2, z3, z4, tol: float):
    """Check that (Z2, Z3, Z4) proves that (A, B) do not coexist.

    With Z1 := Z2 + Z3 - Z4, every M gives sum_i tr(Z_i S_i) = tr(Z2 A) +
    tr(Z3 B) - tr(Z4 K), the value, for the slacks S_i of margin 0 (M,
    A - M, B - M, M - K).  If M were a witness each S_i would lie between
    0 and (1 + spill) I, spill being how far the spectra of A and B leave
    [0, 1] (S_4 <= I - B uses M <= A).  So tr(Z_i S_i) >= -(1 + spill)
    times the sum of Z_i's negative eigenvalues' magnitudes, and the value
    plus these penalties would be >= 0.  The check requires (value +
    penalties) / sum_i tr Z_i < -tol.  For PSD Z_i this is the weak-duality
    bound t* <= value / sum_i tr Z_i.  The penalty does not grow with n, so
    a dual padded with zero blocks keeps its bound.  A and B must be
    Hermitian (see _check_parts); the Z_i are read as their Hermitian
    parts.  Non-finite or wrongly shaped input fails with margin NaN, and
    so does a failed LAPACK call.
    """
    require_tolerance(tol)
    am, bm, *zs = _check_parts(("A", "B", "Z2", "Z3", "Z4"), (a, b, z2, z3, z4))
    mats = np.empty((6, *am.shape), dtype=complex)  # A, B, Z1, Z2, Z3, Z4
    mats[0], mats[1], mats[2] = am, bm, 0.0
    mats[3], mats[4], mats[5] = zs
    if not np.isfinite(mats).all():
        raise InvalidCertificate("finite entries", math.nan)
    # The check is invariant under scaling the Z_i; unit scale avoids overflow.
    scale = float(np.abs(mats[3:]).max())
    if not scale > 0.0:
        raise InvalidCertificate("Z_i not all zero", 0.0)
    mats[3:] /= scale
    herm = mats / 2.0 + mats.conj().swapaxes(1, 2) / 2.0
    am, bm, z1, z2, z3, z4 = herm
    np.add(z2, z3, out=z1)
    z1 -= z4
    w = _eigvalsh_lo(herm)
    if np.isnan(w).any():
        raise InvalidCertificate(f"dual bound < -{tol:g}", math.nan)
    spill = max(0.0, -w[:2, 0].min(), w[:2, -1].max() - 1.0)
    penalty = (1.0 + spill) * np.maximum(0.0, -w[2:]).sum()
    norm = 2.0 * float(np.trace(z2 + z3).real)
    if not norm > 0.0:
        raise InvalidCertificate("sum of tr Z_i > 0", norm)
    k = am + bm - _identity(am.shape[0])
    value = np.vdot(z2, am).real + np.vdot(z3, bm).real - np.vdot(z4, k).real
    bound = float((value + penalty) / norm)
    if not bound < -tol:
        raise InvalidCertificate(f"dual bound < -{tol:g}", bound + tol)


def _passes(check, *args) -> bool:
    """Whether check(*args) raises no InvalidCertificate."""
    try:
        check(*args)
    except InvalidCertificate:
        return False
    return True


def verify_dual(a, b, z2, z3, z4, tol: float = CERT_TOL) -> bool:
    """Whether (Z2, Z3, Z4) proves that A and B do not coexist.

    It does when the dual bound on the margin t* (see _check_dual) is below
    -tol, so any tol >= 0 is sound.  Fails closed: NaN, infinite or wrongly
    shaped parts, non-Hermitian A or B, and duals of coexistent pairs give False.
    """
    return _passes(_check_dual, a, b, z2, z3, z4, tol)


def verify_mn(a, b, m, n) -> bool:
    """Whether (M, N) certifies coexistence of (A, B) at CERT_TOL; fails closed."""
    return _passes(_check_mn, a, b, m, n)


def verify_efg(a, b, e, f, g) -> bool:
    """Whether (E, F, G) certifies coexistence of (A, B) at CERT_TOL; fails closed."""
    return _passes(_check_efg, a, b, e, f, g)


# ---------------------------------------------------------------------------
# Constructive helpers


def sample_coexistent(a, count: int, seed) -> list[Effect]:
    """Random effects coexistent with A, by construction rather than solving.

    Draws M = A^{1/2} R A^{1/2} and N = (I-A)^{1/2} R' (I-A)^{1/2} for random
    effects R, R', and returns B = M + N.  The split (M, N) is then a valid
    certificate, so every sample coexists with A with known ground truth.
    """
    ea = as_effect(a)
    rng = _rng(seed)
    root = sqrt_psd(ea.matrix)
    co_root = sqrt_psd(_identity(ea.dim) - ea.matrix)
    out = []
    for _ in range(count):
        r1 = random_effect(ea.dim, seed=rng).matrix
        r2 = random_effect(ea.dim, seed=rng).matrix
        m = root @ r1 @ root
        n = co_root @ r2 @ co_root
        out.append(clamped_effect(m + n))
    return out


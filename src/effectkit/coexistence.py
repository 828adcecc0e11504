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
feas_tol, or a dual point (Z2, Z3, Z4) that verify_dual accepts, which
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
    _eigh_lo,
    _eigvalsh_lo,
    _lapack_checked,
    _psd_kernel,
    _rng,
    _solve1,
)
from .strata import classify, is_projection, is_scalar

# Solver defaults.  feas_tol and sep_tol are deliberately separated by two
# orders of magnitude: a margin t* certified to lie between -sep_tol and
# -feas_tol is reported as Indeterminate rather than rounded to a verdict.
# max_cycles is the Newton-step budget: the acceptance streams (dims 2-5)
# take at most 30 steps, and rank-one pairs whose sum peaks within 1e-7 to
# 1e-2 of 1 at most 69; at dim 8 the counts were 28 and 82.
FEAS_TOL = 1e-7
SEP_TOL = 1e-5
MAX_CYCLES = 200

# Certificates are checked at a looser tolerance than the solver works to,
# leaving room for the eigenvalue clamp applied when packaging witnesses.
CERT_TOL = 1e-6

# Barrier path: the weight s on the margin grows by _PATH_FACTOR whenever the
# Newton decrement at the current iterate is below _CENTRED, that is when the
# iterate is close enough to the central point of the current s.  A line
# search step shorter than _MIN_STEP counts as numerical failure.
_PATH_FACTOR = 20.0
_CENTRED = 0.5
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
class SolverConfig:
    feas_tol: float = FEAS_TOL
    sep_tol: float = SEP_TOL
    max_cycles: int = MAX_CYCLES

    def __post_init__(self):
        if not 0.0 < self.feas_tol < self.sep_tol:
            raise ValueError("need 0 < feas_tol < sep_tol")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")


@dataclass(frozen=True)
class CoexistenceVerdict:
    """How decide settled a pair.

    ``iterations`` counts the solver's Newton steps (0 for the exact rules
    and for a corner candidate).  ``dual`` is the
    solver's certificate (Z2, Z3, Z4) for verify_dual, normalised so that
    the traces of Z1 = Z2 + Z3 - Z4, Z2, Z3 and Z4 sum to 1; it is None
    unless the solver proved the pair (or, in decide_blockwise, one block
    pair) NotCoexistent.
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
    witness = (clamped_effect(m), clamped_effect(n))
    return CoexistenceVerdict(Verdict.COEXISTENT, reason, witness,
                              float(residual), iterations)


def _not_coexistent(reason: Reason, residual: float,
                    iterations: int = 0) -> CoexistenceVerdict:
    return CoexistenceVerdict(Verdict.NOT_COEXISTENT, reason, None,
                              float(residual), iterations)


# ---------------------------------------------------------------------------
# Exact fast paths


def _rank_one_peak(e: Effect) -> np.ndarray | None:
    """Top eigenvector if e has rank one: classify counts dim - 1 zeros."""
    if classify(e)[1] != e.dim - 1:
        return None
    return e.eig.eigenvectors[:, -1]


def fast_path(a, b, tol: float = ORDER_TOL) -> CoexistenceVerdict | None:
    """Exact structural rules, tried in priority order; None if none apply.

    (1) a scalar effect coexists with everything; (2) a projection coexists
    with exactly the effects it commutes with; (3) commuting effects coexist;
    (4) two rank-one effects with distinct images coexist exactly when their
    sum is still an effect.  Each positive verdict carries a closed-form
    witness.  Rules 1, 2 and 4 read the effects' cached eigenvalues through
    the strata predicates, and rule 4 their top eigenvectors; tol governs
    only rule 4's peak test.
    """
    require_tolerance(tol)
    ea, eb = as_effect(a), as_effect(b)
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    am, bm = ea.matrix, eb.matrix

    # Rule 1: scalars.  tI admits the witness M = tB, N = (1-t)B; for scalar
    # B the mirrored split of B = tI itself is M = tA, N = t(I-A).
    scalar, t = is_scalar(ea, DETECTION_TOL)
    if scalar:
        return _coexistent(Reason.SCALAR_RULE, t * bm, (1.0 - t) * bm)
    scalar, t = is_scalar(eb, DETECTION_TOL)
    if scalar:
        return _coexistent(Reason.SCALAR_RULE, t * am, t * (np.eye(ea.dim) - am))

    comm = np.linalg.norm(am @ bm - bm @ am)
    commute = comm <= DETECTION_TOL

    # Rule 2: projections coexist exactly with their commutant.
    if is_projection(ea, DETECTION_TOL) or is_projection(eb, DETECTION_TOL):
        if commute:
            m = _commuting_witness(am, bm)
            return _coexistent(Reason.PROJECTION_RULE, m, bm - m)
        return _not_coexistent(Reason.PROJECTION_RULE, comm)

    # Rule 3: commuting effects always coexist.
    if commute:
        m = _commuting_witness(am, bm)
        return _coexistent(Reason.COMMUTE_RULE, m, bm - m)

    # Rule 4: rank-one pair with distinct images.
    pa = _rank_one_peak(ea)
    pb = _rank_one_peak(eb)
    if pa is not None and pb is not None:
        overlap = abs(np.vdot(pa, pb)) ** 2
        if 1.0 - overlap >= DETECTION_TOL:
            peak = float(np.linalg.eigvalsh(am + bm)[-1])
            if peak <= 1.0 + tol:
                # A + B <= I makes M = 0, N = B a valid split.
                return _coexistent(Reason.RANK_ONE_RULE,
                                   np.zeros_like(am), bm)
            return _not_coexistent(Reason.RANK_ONE_RULE, peak - 1.0)

    return None


def _commuting_witness(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Eigenvalue-wise minimum of two commuting effects via |A - B|."""
    d = am - bm
    w, v = np.linalg.eigh(d)
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


def _corner_witness(am, bm, k, base, feas_tol):
    """Closed-form candidates that certify easy instances without iterating.

    M = 0 is feasible whenever A + B <= I, M = A whenever A <= B (and
    symmetrically M = B), and the positive part of A + B - I covers pairs
    crowding the identity.  Each candidate is checked against the full
    residual, so a hit is an exact certificate, not a heuristic.  It also
    settles pairs whose margin t* is 0, which the barrier's strictly
    feasible iterates only approach from below.  Returns (M, residual) for
    the first candidate whose residual is below feas_tol, else None.
    """
    for cand in (np.zeros_like(k), np.asarray(am, dtype=complex),
                 np.asarray(bm, dtype=complex), _psd_kernel(k)):
        r = _residual(cand, base)
        if r < feas_tol:
            return cand, r
    return None


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


def _barrier(am, bm, k, base, cfg: SolverConfig):
    """Damped Newton steps along the central path of the margin problem.

    Minimises -s t - sum_i log det S_i over (M, t), where S_i = C_i +
    sigma_i M - tI are the four slacks (C = 0, A, B, -K; sigma = +1, -1,
    -1, +1), for a weight s that grows by _PATH_FACTOR each time the
    iterate is centred.  Every iterate is strictly feasible, so t is a
    lower bound on the margin t*; at a centred iterate Z_i = S_i^-1 (and
    Z1 := Z2 + Z3 - Z4) is nearly a dual point, whose value bounds t* from
    above.  One stacked eigh of the slacks per iterate gives their
    inverses and the line search's feasibility test.  The Newton system is
    real, of size n^2 + 1 in the coordinates of _coordinates plus t;
    building it (_hessian) takes O(n^4) time and memory, solving it O(n^6)
    time.

    Returns (verdict, M or None, residual, Newton steps, dual or None).
    Runs under _lapack_checked, through _solve.
    """
    n = am.shape[0]
    eye = np.eye(n)
    weights, coords = _coordinates(n)
    m = (am + bm) / 4.0
    t = _eigvalsh_lo(base + _SIGNS * m).min() - 1.0
    s = None
    dm, dt, step = np.zeros_like(m), 0.0, 0.0
    steps = 0
    while True:
        # Line search: halve the step until every slack is positive definite.
        w, v = _eigh_lo(base + _SIGNS * (m + step * dm) - (t + step * dt) * eye)
        if not w.min() > 0.0:
            step /= 2.0
            if step < _MIN_STEP:
                return Verdict.INDETERMINATE, None, _residual(m, base), steps, None
            continue
        m, t = m + step * dm, t + step * dt
        lower = w.min() + t  # the smallest eigenvalue of the C_i + sigma_i M

        if lower > -cfg.feas_tol:
            r = _residual(m, base)
            if r < cfg.feas_tol:
                return Verdict.COEXISTENT, m, r, steps, None

        inv_w = 1.0 / w
        vh = v.conj().swapaxes(1, 2)
        wi = (v * inv_w[:, None, :]) @ vh  # W_i = S_i^-1
        traces = inv_w.sum(axis=1)
        norm = 2.0 * (traces[1] + traces[2])  # sum of tr Z_i, Z1 included
        value = (np.vdot(wi[1], am).real + np.vdot(wi[2], bm).real
                 - np.vdot(wi[3], k).real) / norm
        if value < -cfg.feas_tol:
            # The dual bound needs Z1 = W2 + W3 - W4, which can be indefinite.
            z1_low = _eigvalsh_lo(wi[1] + wi[2] - wi[3])[0]
            upper = value + n * max(0.0, -z1_low) / norm
            if upper <= -cfg.sep_tol:
                dual = wi[1:] / norm
                dual.flags.writeable = False
                if verify_dual(am, bm, *dual):
                    return (Verdict.NOT_COEXISTENT, None, _residual(m, base),
                            steps, tuple(dual))
            elif lower > -cfg.sep_tol and upper < -cfg.feas_tol:
                # t* lies between -sep_tol and -feas_tol: neither certificate
                # can exist at these tolerances.
                return Verdict.INDETERMINATE, None, _residual(m, base), steps, None
        if steps >= cfg.max_cycles:
            return Verdict.INDETERMINATE, None, _residual(m, base), steps, None

        # Newton system in the coordinates (x, t) of (M, t).
        wsq = (v * (inv_w * inv_w)[:, None, :]) @ vh
        hess = _hessian(wi, wsq, inv_w)
        grad = np.empty(n * n + 1)
        grad[:-1] = (coords * (wi[1] + wi[2] - wi[0] - wi[3])).real.ravel()
        if s is None:
            s = traces.sum()  # the start's gradient in t vanishes
        while True:
            grad[-1] = traces.sum() - s
            delta = _solve1(hess, -grad, signature="dd->d")
            decrement_sq = -grad @ delta
            if not math.isfinite(decrement_sq):
                raise np.linalg.LinAlgError("Newton system has no finite solution")
            decrement = math.sqrt(max(0.0, decrement_sq))
            if decrement >= _CENTRED:
                break
            s *= _PATH_FACTOR
        dm = weights * delta[:-1].reshape(n, n)
        dm += dm.conj().T
        dt = delta[-1]
        step = 1.0 / (1.0 + decrement)
        steps += 1


@_lapack_checked()
def _solve(am, bm, cfg: SolverConfig):
    """Corner candidates, then the barrier method, on one ordered pair."""
    n = am.shape[0]
    k = am + bm - np.eye(n)
    base = np.stack((np.zeros_like(k), am, bm, -k))
    corner = _corner_witness(am, bm, k, base, cfg.feas_tol)
    if corner is not None:
        return (Verdict.COEXISTENT, *corner, 0, None)
    return _barrier(am, bm, k, base, cfg)


def _order_key(m: np.ndarray):
    return (float(np.trace(m).real), m.tobytes())


def decide(a, b, cfg: SolverConfig | None = None, *,
           fast_paths: bool = True, tol: float = ORDER_TOL) -> CoexistenceVerdict:
    """Decide coexistence of two effects of equal dimension.

    Exact fast paths are consulted first unless disabled.  The solver
    returns Coexistent only with a witness pair (M, N), and NotCoexistent
    only with a dual (Z2, Z3, Z4) that verify_dual accepts.  It reports
    Indeterminate when it certifies that the margin t* lies between -sep_tol
    and -feas_tol, where neither certificate can exist, when its Newton-step
    budget cfg.max_cycles runs out, or when its line search cannot keep the
    iterate strictly feasible.

    A Newton step solves a dense real system of size n^2 + 1: O(n^6) time
    and O(n^4) memory, measured at about 0.4 ms for n = 8, the harness's
    largest dimension, and 70 ms with 43 MB of arrays for n = 32.  Pairs
    take 10 to 40 steps, so dimensions up to about 32 are practical.

    The solver's iteration path depends on argument order, so the pair is
    put into a canonical order first; this makes decide(A, B) and
    decide(B, A) return identical verdicts, residuals and step counts.
    """
    require_tolerance(tol)
    ea, eb = as_effect(a), as_effect(b)
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    if cfg is None:
        cfg = SolverConfig()

    if fast_paths:
        hit = fast_path(ea, eb, tol=tol)
        if hit is not None:
            return hit

    first, second = ea.matrix, eb.matrix
    swapped = _order_key(second) < _order_key(first)
    if swapped:
        first, second = second, first

    verdict, m_raw, residual, steps, dual = _solve(first, second, cfg)

    if verdict is Verdict.COEXISTENT:
        # A witness M for the solved orientation is also one for the caller's
        # orientation: M <= both effects and M >= A+B-I are symmetric in the
        # pair, and N is recomputed as B - M against the caller's B.
        return _coexistent(Reason.FEASIBILITY_SOLVER, m_raw,
                           eb.matrix - m_raw, residual, steps)
    if dual is not None and swapped:
        # Z2 pairs with the first effect and Z3 with the second; K is symmetric.
        z2, z3, z4 = dual
        dual = (z3, z2, z4)
    return CoexistenceVerdict(verdict, Reason.FEASIBILITY_SOLVER, None,
                              float(residual), steps, dual)


def decide_blockwise(a_blocks, b_blocks, cfg: SolverConfig | None = None, *,
                     fast_paths: bool = True) -> CoexistenceVerdict:
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
        res = decide(blk_a, blk_b, cfg, fast_paths=fast_paths)
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

    witness = None
    if all(res.witness is not None for res in results):
        m_blocks = [res.witness[0] for res in results]
        n_blocks = [res.witness[1] for res in results]
        witness = (Effect.trusted(direct_sum(m_blocks)),
                   Effect.trusted(direct_sum(n_blocks)))
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


def _check_psd(names, mats, tol: float):
    """Check each matrix is PSD at tol; the first that fails, in order, raises.

    A non-finite matrix fails with margin NaN.  The finite ones before it go
    through one stacked eigvalsh of their Hermitian parts, formed as
    X/2 + X*/2 so that finite entries near the float limit cannot overflow.
    """
    stack = np.stack(mats)
    finite = np.isfinite(stack).all(axis=(1, 2))
    checked = len(mats) if finite.all() else int(finite.argmin())
    herm = stack[:checked]
    lows = np.linalg.eigvalsh(herm / 2.0 + herm.conj().swapaxes(1, 2) / 2.0)[:, 0]
    for name, lo in zip(names, lows):
        if not lo >= -tol:
            raise InvalidCertificate(f"{name} >= 0", -float(lo))
    if checked < len(mats):
        raise InvalidCertificate(f"{names[checked]} >= 0", math.nan)


def _check_close(name: str, x: np.ndarray, y: np.ndarray, tol: float):
    dev = float(np.linalg.norm(x - y))
    if not dev <= tol:
        raise InvalidCertificate(name, dev)


def _check_shapes(names, parts):
    """A certificate's parts as arrays, after checking each has A's shape.

    A must be square.  A part of another shape fails the certificate with
    margin NaN before any arithmetic, so numpy never broadcasts it.
    """
    mats = [as_matrix(x) for x in parts]
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise InvalidCertificate(f"shape of {names[0]} = (n, n), n >= 1", math.nan)
    for name, x in zip(names[1:], mats[1:]):
        if x.shape != shape:
            raise InvalidCertificate(f"shape of {name} = {shape}", math.nan)
    return mats


def _check_mn(a, b, m, n, tol: float):
    am, bm, mm, nm = _check_shapes("ABMN", (a, b, m, n))
    eye = np.eye(am.shape[0])
    _check_psd(("M", "N", "A - M", "(I - A) - N"),
               (mm, nm, am - mm, eye - am - nm), tol)
    _check_close("M + N = B", mm + nm, bm, tol)
    return am, bm, mm, nm


def _check_efg(a, b, e, f, g, tol: float):
    am, bm, em, fm, gm = _check_shapes("ABEFG", (a, b, e, f, g))
    eye = np.eye(am.shape[0])
    _check_psd(("E", "F", "G", "I - (E + F + G)"),
               (em, fm, gm, eye - em - fm - gm), tol)
    _check_close("E + G = A", em + gm, am, tol)
    _check_close("F + G = B", fm + gm, bm, tol)
    return am, bm, em, fm, gm


def mn_to_efg(m, n, a, b, tol: float = CERT_TOL):
    """Convert a split certificate (M, N) into a triple (E, F, G).

    The triple satisfies A = E + G, B = F + G with E + F + G an effect;
    concretely (E, F, G) = (A - M, N, M).  Raises InvalidCertificate if the
    input fails its constraints at tol.  Returns plain Hermitian arrays so
    that the round-trip with efg_to_mn is exact to machine precision.
    """
    am, bm, mm, nm = _check_mn(a, b, m, n, tol)
    return am - mm, nm, mm


def efg_to_mn(e, f, g, a, b, tol: float = CERT_TOL):
    """Convert a triple certificate (E, F, G) into the split form (M, N).

    Inverse of mn_to_efg: returns (G, F).
    """
    _, _, _, fm, gm = _check_efg(a, b, e, f, g, tol)
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
    Hermitian to HERMITICITY_TOL; the Z_i are read as their Hermitian
    parts.  Non-finite or wrongly shaped input fails with margin NaN.
    """
    am, bm, *zs = _check_shapes(("A", "B", "Z2", "Z3", "Z4"), (a, b, z2, z3, z4))
    mats = np.stack((am, bm, *zs))
    if not np.isfinite(mats).all():
        raise InvalidCertificate("finite entries", math.nan)
    # The check is invariant under scaling the Z_i; unit scale avoids overflow.
    scale = float(np.abs(mats[2:]).max())
    if not scale > 0.0:
        raise InvalidCertificate("Z_i not all zero", 0.0)
    mats[2:] /= scale
    herm = mats / 2.0 + mats.conj().swapaxes(1, 2) / 2.0
    for name, x in zip("AB", mats):
        dev = float(np.abs(x - x.conj().T).max())
        if not dev <= HERMITICITY_TOL:
            raise InvalidCertificate(f"{name} Hermitian", dev)
    am, bm, z2, z3, z4 = herm
    dim = am.shape[0]
    w = np.linalg.eigvalsh(np.stack((am, bm, z2 + z3 - z4, z2, z3, z4)))
    spill = max(0.0, -w[:2, 0].min(), w[:2, -1].max() - 1.0)
    penalty = (1.0 + spill) * np.maximum(0.0, -w[2:]).sum()
    norm = 2.0 * float(np.trace(z2 + z3).real)
    if not norm > 0.0:
        raise InvalidCertificate("sum of tr Z_i > 0", norm)
    k = am + bm - np.eye(dim)
    value = np.vdot(z2, am).real + np.vdot(z3, bm).real - np.vdot(z4, k).real
    bound = float((value + penalty) / norm)
    if not bound < -tol:
        raise InvalidCertificate(f"dual bound < -{tol:g}", bound + tol)


def verify_dual(a, b, z2, z3, z4, tol: float = CERT_TOL) -> bool:
    """Whether (Z2, Z3, Z4) proves that A and B do not coexist.

    It does when the dual bound on the margin t* (see _check_dual) is below
    -tol.  Fails closed: NaN, infinite or wrongly shaped parts, non-Hermitian
    A or B, and the dual of a coexistent pair all give False.
    """
    require_tolerance(tol)
    try:
        _check_dual(a, b, z2, z3, z4, tol)
    except InvalidCertificate:
        return False
    return True


def verify_mn(a, b, m, n, tol: float = CERT_TOL) -> bool:
    """Whether (M, N) certifies coexistence of (A, B) at tolerance tol."""
    try:
        _check_mn(a, b, m, n, tol)
    except InvalidCertificate:
        return False
    return True


def verify_efg(a, b, e, f, g, tol: float = CERT_TOL) -> bool:
    """Whether (E, F, G) certifies coexistence of (A, B) at tolerance tol."""
    try:
        _check_efg(a, b, e, f, g, tol)
    except InvalidCertificate:
        return False
    return True


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
    co_root = sqrt_psd(np.eye(ea.dim) - ea.matrix)
    out = []
    for _ in range(count):
        r1 = random_effect(ea.dim, seed=rng).matrix
        r2 = random_effect(ea.dim, seed=rng).matrix
        m = root @ r1 @ root
        n = co_root @ r2 @ co_root
        out.append(clamped_effect(m + n))
    return out


def interior_perturbation(a, b, eps: float) -> np.ndarray:
    """Perturb B, sandwiched 0 <= B <= A, into the strict interior (0, A).

    Conjugates B into the frame of A, clamps the resulting spectrum into
    [delta, 1 - delta], and maps back; delta is chosen so the output moves
    by less than eps in operator norm while both C and A - C stay invertible.
    """
    require_tolerance(eps, "eps", positive=True)
    am, bm = as_matrix(a), as_matrix(b)
    w, v = np.linalg.eigh((am + am.conj().T) / 2.0)
    if w[0] < DETECTION_TOL:
        raise ValueError(f"A must be invertible: smallest eigenvalue {w[0]:.6g}")
    if np.linalg.eigvalsh((bm + bm.conj().T) / 2.0)[0] < -ORDER_TOL:
        raise ValueError("need B >= 0")
    if np.linalg.eigvalsh((am - bm + (am - bm).conj().T) / 2.0)[0] < -ORDER_TOL:
        raise ValueError("need B <= A")

    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    root = (v * np.sqrt(w)) @ v.conj().T

    kappa = math.sqrt(w[-1] / w[0])
    delta = min(eps / (2.0 * w[-1] * kappa), 0.25)

    mid = inv_root @ bm @ inv_root
    wm, vm = np.linalg.eigh((mid + mid.conj().T) / 2.0)
    clamped = (vm * np.clip(wm, delta, 1.0 - delta)) @ vm.conj().T
    c = root @ clamped @ root
    return (c + c.conj().T) / 2.0

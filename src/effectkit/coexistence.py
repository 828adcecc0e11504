"""Coexistence of pairs of effects: exact rules plus a feasibility solver.

Effects A and B coexist (are jointly measurable) exactly when B splits as
M + N with 0 <= M <= A and 0 <= N <= I - A.  Substituting N = B - M turns
this into membership of M in the intersection of four spectral order
intervals, {M >= 0}, {M <= A}, {M <= B} and {M >= A+B-I}, which is decided
with Dykstra's cyclic projection algorithm whenever no exact structural rule
settles the pair first.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hermitian import (
    DETECTION_TOL,
    ORDER_TOL,
    Effect,
    as_effect,
    as_matrix,
    clamped_effect,
    direct_sum,
    random_effect,
    require_tolerance,
    sqrt_psd,
    _eigvalsh_lo,
    _lapack_checked,
    _psd_kernel,
    _rng,
)
from .strata import classify, is_projection, is_scalar

# Solver defaults.  feas_tol and sep_tol are deliberately separated by two
# orders of magnitude: residuals landing between them are reported as
# Indeterminate rather than rounded to a verdict.
FEAS_TOL = 1e-7
SEP_TOL = 1e-5
MAX_CYCLES = 20000
STALL_WINDOW = 50

# Certificates are checked at a looser tolerance than the solver works to,
# leaving room for the eigenvalue clamp applied when packaging witnesses.
CERT_TOL = 1e-6

# Stall detection for the infeasible branch.  On an empty intersection the
# Dykstra iterate does not converge; its correction terms grow without bound,
# so a literal fixed-point test alone can fail to fire within the cycle
# budget.  Three triggers, evaluated over the trailing stall_window cycles:
#   - displacement: every per-cycle movement below 1e-12 (a true fixed point);
#   - plateau: the residual band is flat to a relative 1e-5 while movement
#     stays below 1e-4 (the iterate orbits a limit cycle around the gap);
#   - drift: total correction magnitude grows linearly, with equal increments
#     over three consecutive windows and a per-cycle rate of at least 1e-6
#     (on feasible problems the corrections converge instead of drifting).
_STALL_DISP = 1e-12
_PLATEAU_REL = 1e-5
_PLATEAU_DISP_CAP = 1e-4
_DRIFT_RATIO = 1.002
_DRIFT_FLOOR = 1e-6

# Once the residual drops below feas_tol the iterate is refined with plain
# cyclic projections (no corrections), which sharpens the witness by a few
# more orders of magnitude at negligible cost.
_POLISH_TARGET = 1e-10
_POLISH_CYCLES = 200


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
    stall_window: int = STALL_WINDOW

    def __post_init__(self):
        if not 0.0 < self.feas_tol < self.sep_tol:
            raise ValueError("need 0 < feas_tol < sep_tol")
        if self.max_cycles < 1 or self.stall_window < 1:
            raise ValueError("cycle counts must be positive")


@dataclass(frozen=True)
class CoexistenceVerdict:
    verdict: Verdict
    reason: Reason
    witness: tuple[Effect, Effect] | None
    residual: float
    iterations: int

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
    witness.  Rules 1, 2 and 4 read the effects' cached eigendecompositions
    through the strata predicates; tol governs only rule 4's peak test.
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
# Dykstra feasibility solver


def _stalled(r_win, d_win, c_hist, window: int) -> bool:
    if len(d_win) < window:
        return False
    if max(d_win) < _STALL_DISP:
        return True
    rmax = max(r_win)
    if rmax - min(r_win) <= _PLATEAU_REL * rmax and max(d_win) <= _PLATEAU_DISP_CAP:
        return True
    if len(c_hist) == 3 * window + 1:
        g1 = c_hist[-1] - c_hist[-window - 1]
        g2 = c_hist[-window - 1] - c_hist[-2 * window - 1]
        g3 = c_hist[-2 * window - 1] - c_hist[0]
        lo = min(g1, g2, g3)
        if lo > 0.0 and max(g1, g2, g3) <= _DRIFT_RATIO * lo \
                and g1 / window >= _DRIFT_FLOOR:
            return True
    return False


# The four constraint matrices X, A - X, B - X and X - K of an iterate X are
# base + _SIGNS * X, with base = (0, A, B, -K) stacked once per solve.
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0]).reshape(4, 1, 1)


def _residual(x, base) -> float:
    """Largest violation of the four constraints at x, or 0 if none."""
    lo = _eigvalsh_lo(base + _SIGNS * x).min()
    return max(0.0, float(-lo))


def _norm(m: np.ndarray) -> float:
    """np.linalg.norm(m) of a complex array, by numpy's own formula."""
    m = m.ravel(order="K")
    re, im = m.real, m.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _initial_iterate(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    eye = np.eye(am.shape[0])
    mid = (am + bm - _psd_kernel(am + bm - eye)) / 2.0
    w, v = np.linalg.eigh(mid)
    return (v * np.clip(w, 0.0, 1.0)) @ v.conj().T


def _corner_witness(am, bm, k, base, feas_tol):
    """Closed-form candidates that certify easy instances without iterating.

    M = 0 is feasible whenever A + B <= I, M = A whenever A <= B (and
    symmetrically M = B), and the positive part of A + B - I covers pairs
    crowding the identity.  Each candidate is checked against the full
    residual, so a hit is an exact certificate, not a heuristic.  This
    matters for nearly singular pairs, where the feasible set is too thin
    for the projection loop to enter before stall detection trips.
    """
    for cand in (np.zeros_like(k), np.asarray(am, dtype=complex),
                 np.asarray(bm, dtype=complex), _psd_kernel(k)):
        if _residual(cand, base) < feas_tol:
            return cand
    return None


def _polish(x, am, bm, k, base):
    """Plain cyclic projections to sharpen a near-feasible iterate."""
    best = x
    best_r = _residual(x, base)
    used = 0
    for used in range(1, _POLISH_CYCLES + 1):
        x = _psd_kernel(x)
        x = am - _psd_kernel(am - x)
        x = bm - _psd_kernel(bm - x)
        x = k + _psd_kernel(x - k)
        r = _residual(x, base)
        if r < best_r:
            best, best_r = x, r
        if r <= _POLISH_TARGET:
            break
    return best, best_r, used


@_lapack_checked()
def _dykstra(am, bm, cfg: SolverConfig):
    """Dykstra loop over the four order-interval sets."""
    n = am.shape[0]
    k = am + bm - np.eye(n)
    base = np.stack((np.zeros_like(k), am, bm, -k))
    corner = _corner_witness(am, bm, k, base, cfg.feas_tol)
    if corner is not None:
        x, r, extra = _polish(corner, am, bm, k, base)
        return Verdict.COEXISTENT, x, r, extra
    x = _initial_iterate(am, bm)
    zero = np.zeros((n, n), dtype=complex)
    p1, p2, p3, p4 = zero, zero, zero, zero

    w = cfg.stall_window
    r_win: deque = deque(maxlen=w)
    d_win: deque = deque(maxlen=w)
    c_hist: deque = deque(maxlen=3 * w + 1)

    r = _residual(x, base)
    for cycle in range(1, cfg.max_cycles + 1):
        if r < cfg.feas_tol:
            x, r, extra = _polish(x, am, bm, k, base)
            return Verdict.COEXISTENT, x, r, cycle - 1 + extra

        x_start = x
        y = x + p1
        x = _psd_kernel(y)
        p1 = y - x
        y = x + p2
        x = am - _psd_kernel(am - y)
        p2 = y - x
        y = x + p3
        x = bm - _psd_kernel(bm - y)
        p3 = y - x
        y = x + p4
        x = k + _psd_kernel(y - k)
        p4 = y - x

        r = _residual(x, base)
        r_win.append(r)
        d_win.append(_norm(x - x_start))
        c_hist.append(_norm(p1) + _norm(p2) + _norm(p3) + _norm(p4))

        if _stalled(r_win, d_win, c_hist, w):
            if r > cfg.sep_tol:
                return Verdict.NOT_COEXISTENT, None, r, cycle
            return Verdict.INDETERMINATE, None, r, cycle

    if r < cfg.feas_tol:
        x, r, extra = _polish(x, am, bm, k, base)
        return Verdict.COEXISTENT, x, r, cfg.max_cycles + extra
    return Verdict.INDETERMINATE, None, r, cfg.max_cycles


def _order_key(m: np.ndarray):
    return (float(np.trace(m).real), m.tobytes())


def decide(a, b, cfg: SolverConfig | None = None, *,
           fast_paths: bool = True, tol: float = ORDER_TOL) -> CoexistenceVerdict:
    """Decide coexistence of two effects of equal dimension.

    Exact fast paths are consulted first unless disabled.  The feasibility
    solver returns Coexistent only with a witness pair (M, N); NotCoexistent
    rests on the stall heuristics documented above, and anything in between
    is reported as Indeterminate rather than guessed.

    The solver's iteration path depends on argument order, so the pair is
    put into a canonical order first; this makes decide(A, B) and
    decide(B, A) return identical verdicts, residuals and cycle counts.
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
    if _order_key(second) < _order_key(first):
        first, second = second, first

    verdict, m_raw, residual, cycles = _dykstra(first, second, cfg)

    if verdict is Verdict.COEXISTENT:
        # A witness M for the solved orientation is also one for the caller's
        # orientation: M <= both effects and M >= A+B-I are symmetric in the
        # pair, and N is recomputed as B - M against the caller's B.
        return _coexistent(Reason.FEASIBILITY_SOLVER, m_raw,
                           eb.matrix - m_raw, residual, cycles)
    return CoexistenceVerdict(verdict, Reason.FEASIBILITY_SOLVER, None,
                              float(residual), cycles)


def decide_blockwise(a_blocks, b_blocks, cfg: SolverConfig | None = None, *,
                     fast_paths: bool = True) -> CoexistenceVerdict:
    """Decide coexistence of two block-diagonal effects block by block.

    The direct sums coexist exactly when every block pair does.  A single
    NotCoexistent block settles the question (remaining blocks are skipped);
    otherwise any Indeterminate block makes the whole answer Indeterminate.
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
            return CoexistenceVerdict(Verdict.NOT_COEXISTENT, Reason.BLOCKWISE,
                                      None, res.residual, iterations)
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


# ---------------------------------------------------------------------------
# Certificates


def _check_psd(names, mats, tol: float):
    """Check each matrix is PSD at tol; the first that fails, in order, raises.

    A non-finite matrix fails with margin NaN.  The finite ones before it go
    through one stacked eigvalsh.
    """
    stack = np.stack(mats)
    finite = np.isfinite(stack).all(axis=(1, 2))
    checked = len(mats) if finite.all() else int(finite.argmin())
    herm = stack[:checked]
    lows = np.linalg.eigvalsh((herm + herm.conj().swapaxes(1, 2)) / 2.0)[:, 0]
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

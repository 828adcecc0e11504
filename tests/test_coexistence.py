import sys

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from effectkit import coexistence, hermitian
from effectkit.coexistence import (
    CERT_TOL,
    FEAS_TOL,
    SEP_TOL,
    CoexistenceVerdict,
    InvalidCertificate,
    Reason,
    Verdict,
    decide,
    decide_blockwise,
    efg_to_mn,
    fast_path,
    mn_to_efg,
    sample_coexistent,
    verify_dual,
    verify_efg,
    verify_mn,
)
from effectkit.harness import RULE_FAMILIES, rule_instance, trial_rng
from effectkit.hermitian import (
    Effect,
    NotHermitian,
    as_matrix,
    conjugate,
    direct_sum,
    orthocomplement,
    random_effect,
    random_projection,
    random_unitary,
    sqrt_psd,
)


def rank_one_pair(alpha, beta, overlap):
    """2x2 rank-one pair with |<p,q>|^2 = overlap; the largest eigenvalue of
    the sum is ((a+b) + sqrt((a+b)^2 - 4ab(1-t)))/2 on the span."""
    p = np.array([1.0, 0.0])
    q = np.array([np.sqrt(overlap), np.sqrt(1.0 - overlap)])
    a = Effect(alpha * np.outer(p, p).astype(complex))
    b = Effect(beta * np.outer(q, q).astype(complex))
    return a, b


# Frozen from the span formula with alpha = beta = 0.6: the peak of A+B is
# 0.9 at overlap 0.25, 1.14 at overlap 0.81, and 1.02 at overlap 0.49.
FROZEN_RANK_ONE = (
    (0.25, 0.9, Verdict.COEXISTENT),
    (0.81, 1.14, Verdict.NOT_COEXISTENT),
    (0.49, 1.02, Verdict.NOT_COEXISTENT),
)


def test_rank_one_frozen_peaks_and_verdicts():
    for overlap, peak, expected in FROZEN_RANK_ONE:
        a, b = rank_one_pair(0.6, 0.6, overlap)
        top = float(np.linalg.eigvalsh(as_matrix(a) + as_matrix(b))[-1])
        assert top == pytest.approx(peak, abs=1e-10)
        res = decide(a, b)
        assert res.verdict == expected
        assert res.reason == Reason.RANK_ONE_RULE
        if expected == Verdict.COEXISTENT:
            assert verify_mn(a, b, *res.witness)


# Solver verdicts and step counts, frozen: the rank-one cases above with
# fast paths off, then (dim, index, verdict, steps) for pairs of criterion
# 6's generic stream that the first four corner candidates do not settle;
# the meet settles dim 2 #63.  A step is a Newton step; a corner candidate
# takes none.
FROZEN_RANK_ONE_CYCLES = (0, 3, 7)
FROZEN_GENERIC = (
    (2, 63, Verdict.COEXISTENT, 0),
    (2, 89, Verdict.COEXISTENT, 6),
    (2, 166, Verdict.COEXISTENT, 2),
    (3, 70, Verdict.NOT_COEXISTENT, 7),
    (3, 51, Verdict.COEXISTENT, 2),
    (4, 13, Verdict.NOT_COEXISTENT, 7),
    (5, 17, Verdict.NOT_COEXISTENT, 9),
)


def _assert_certified(a, b, res):
    """The solver's verdict carries the certificate its kind promises."""
    if res.verdict == Verdict.COEXISTENT:
        assert verify_mn(a, b, *res.witness)
        assert res.dual is None
    else:
        assert res.witness is None
        assert verify_dual(a, b, *res.dual)


def test_rank_one_solver_agreement():
    for (overlap, _, expected), cycles in zip(FROZEN_RANK_ONE,
                                              FROZEN_RANK_ONE_CYCLES):
        a, b = rank_one_pair(0.6, 0.6, overlap)
        res = decide(a, b, fast_paths=False)
        assert res.verdict == expected
        assert res.reason == Reason.FEASIBILITY_SOLVER
        assert res.iterations == cycles
        _assert_certified(a, b, res)
    for dim, index, expected, cycles in FROZEN_GENERIC:
        rng = trial_rng(0, f"acc6:{dim}", index)
        a = random_effect(dim, seed=rng)
        b = random_effect(dim, seed=rng)
        res = decide(a, b)
        assert res.verdict == expected
        assert res.reason == Reason.FEASIBILITY_SOLVER
        assert res.iterations == cycles
        _assert_certified(a, b, res)


@pytest.mark.parametrize("module, gufunc", [(hermitian, "_eigh_lo"),
                                            (coexistence, "_eigvalsh_lo")])
def test_solver_raises_when_the_eigensolver_fails(monkeypatch, module, gufunc):
    # Fed NaN, the LAPACK gufunc fails as on non-convergence: NaN output and
    # the invalid flag set.  The solver must raise, not read NaN as residual 0.
    real = getattr(module, gufunc)
    monkeypatch.setattr(module, gufunc, lambda m: real(np.full_like(m, np.nan)))
    a = random_effect(3, seed=41)
    b = random_effect(3, seed=42)
    with pytest.raises(np.linalg.LinAlgError):
        decide(a, b, fast_paths=False)


def _criterion6_pair(dim, index):
    rng = trial_rng(0, f"acc6:{dim}", index)
    return random_effect(dim, seed=rng), random_effect(dim, seed=rng)


@pytest.mark.parametrize("gufunc", ["_eigh_lo", "_solve1"])
def test_barrier_raises_when_lapack_fails(monkeypatch, gufunc):
    # Criterion 6's pair dim 3 #70 passes the corner check and is decided
    # by the barrier method; a LAPACK routine fed NaN must raise there.
    a, b = _criterion6_pair(3, 70)
    assert decide(a, b).reason == Reason.FEASIBILITY_SOLVER
    real = getattr(coexistence, gufunc)
    monkeypatch.setattr(coexistence, gufunc,
                        lambda m, *args, **kwargs: real(np.full_like(m, np.nan), *args, **kwargs))
    with pytest.raises(np.linalg.LinAlgError):
        decide(a, b)


@pytest.mark.parametrize("pivot", [0.0, 1e-320])
def test_singular_newton_system_ends_indeterminate(monkeypatch, pivot):
    # With the Hessian's t row and column zeroed but for the pivot, the
    # Newton system is singular to working precision: a zero pivot makes
    # LAPACK's solve fail, a subnormal one gives an infinite step.  Either
    # is a numerical dead end like a failed line search, so decide ends
    # Indeterminate instead of raising.
    a, b = _criterion6_pair(3, 70)
    real = coexistence._hessian

    def singular(*args):
        hess = real(*args)
        hess[-1, :] = hess[:, -1] = 0.0
        hess[-1, -1] = pivot
        return hess

    monkeypatch.setattr(coexistence, "_hessian", singular)
    res = decide(a, b)
    assert res.verdict == Verdict.INDETERMINATE
    assert res.reason == Reason.FEASIBILITY_SOLVER
    assert res.witness is None and res.dual is None


def test_rank_one_pair_just_past_the_peak_is_not_coexistent():
    # A = x pp*, B = x qq* with |<p, q>|^2 = 1/2 peak at x (1 + sqrt(1/2)) =
    # 1.0005.  Rule 4 and the solver both prove the pair NotCoexistent.
    # Rule 4's peak test allows only ORDER_TOL: an allowance of 1e-3 would
    # return the witness (0, B), which verify_mn rejects.
    x = 1.0005 / (1.0 + np.sqrt(0.5))
    a, b = rank_one_pair(x, x, 0.5)
    ruled = decide(a, b)
    assert ruled.verdict == Verdict.NOT_COEXISTENT
    assert ruled.reason == Reason.RANK_ONE_RULE
    solved = decide(a, b, fast_paths=False)
    assert solved.verdict == Verdict.NOT_COEXISTENT
    assert verify_dual(a, b, *solved.dual)


@pytest.mark.parametrize("caller, poisoned_call", [("_corner_witness", 1), ("_barrier", 2)])
def test_solver_raises_when_a_screen_or_step_eigvalsh_fails(monkeypatch, caller, poisoned_call):
    # The corner screen's stacked eigvalsh (the one _corner_witness makes
    # itself) and the barrier's eigvalsh of the G_i (its second, after the
    # start's) are fed NaN: the solver must raise, not read NaN as a pass.
    real = coexistence._eigvalsh_lo
    calls = []

    def poisoned(m, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == caller:
            calls.append(m.shape)
            if len(calls) == poisoned_call:
                m = np.full_like(m, np.nan)
        return real(m, *args, **kwargs)

    a, b = _criterion6_pair(3, 70)
    monkeypatch.setattr(coexistence, "_eigvalsh_lo", poisoned)
    with pytest.raises(np.linalg.LinAlgError):
        decide(a, b, fast_paths=False)
    assert calls == [(4, 3, 3)] * poisoned_call


_RESIDUAL = coexistence._residual


def _corner_candidates(am, bm, k):
    return (np.zeros_like(k), am, bm, hermitian._psd_kernel(k), coexistence._meet(am, bm))


def _corner_by_residual(am, bm, k, base):
    """The corner check without its screens: each candidate's full residual."""
    cands = _corner_candidates(am, bm, k)
    for cand in cands:
        r = _RESIDUAL(cand, base)
        if r < FEAS_TOL:
            return cand, r
    return cands[-1], None


def _rotated(values, rng):
    """A Haar-rotated Hermitian matrix with the given spectrum."""
    u = random_unitary(len(values), seed=rng)
    m = (u * values) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _corner_pairs(dim, rng):
    """Seeded pairs for the corner check, each candidate's kind among them."""
    eye = np.eye(dim)
    for index in range(300):
        kind = index % 6
        a = random_effect(dim, seed=rng).matrix
        r = random_effect(dim, seed=rng).matrix
        if kind == 1:  # A + B <= I: M = 0
            a, r = 0.5 * a, 0.5 * r
        elif kind == 5:  # A + B = I: M = 0 with margin 0
            r = eye - a
        elif kind in (2, 3):  # A <= B, B - A singular: M = A, or M = B swapped
            root = sqrt_psd(eye - a)
            r = a + root @ random_effect(dim, (0, 1), seed=rng).matrix @ root
            if kind == 3:
                a, r = r, a
        elif kind == 4:  # both near I: M = K+
            a, r = eye - 0.4 * a, eye - 0.5 * r
        yield Effect(a), Effect(r)
    for index in range(80):
        yield rule_instance(RULE_FAMILIES[index % len(RULE_FAMILIES)], dim, rng)[:2]
    for index in range(60):
        # A small but for one spike, B in [0.5, 0.95]: K+ spills into the
        # directions where A is small, and only the meet certifies some.
        # Lowering every other pair by the meet's smallest eigenvalue
        # lowers the meet by as much: margin 0.
        spiky = rng.uniform(0.0, 0.08, dim)
        spiky[-1] = rng.uniform(0.6, 0.95)
        a, b = _rotated(spiky, rng), _rotated(rng.uniform(0.5, 0.95, dim), rng)
        if index % 2:
            with hermitian._lapack_checked():
                low = np.linalg.eigvalsh(coexistence._meet(a, b))[0]
            a, b = a - max(low, 0.0) * eye, b - max(low, 0.0) * eye
        yield Effect(a), Effect(b)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_corner_screen_picks_the_full_residual_candidate(monkeypatch, dim):
    # The screens read six slacks; the full residuals read twenty.  On
    # every pair both must pick the same candidate, bytes and residual
    # included, and every candidate must be picked somewhere.  The screens
    # let through only the candidate they return: one full residual on a
    # hit, none on a miss, which returns the meet for the barrier's start.
    rng = np.random.default_rng(90 + dim)
    picked = set()
    residual = coexistence._residual
    confirmed = []
    monkeypatch.setattr(coexistence, "_residual",
                        lambda x, base: confirmed.append(1) or residual(x, base))
    for a, b in _corner_pairs(dim, rng):
        am, bm = a.matrix, b.matrix
        k = am + bm - np.eye(dim)
        base = np.stack((np.zeros_like(k), am, bm, -k))
        confirmed.clear()
        with hermitian._lapack_checked():
            got = coexistence._corner_witness(am, bm, k, base)
            assert len(confirmed) == (got[1] is not None)
            want = _corner_by_residual(am, bm, k, base)
            cands = _corner_candidates(am, bm, k)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        if got[1] is None:
            continue
        assert got[1] < FEAS_TOL
        res = decide(a, b, fast_paths=False)
        assert res.iterations == 0 and verify_mn(a, b, *res.witness)
        picked.add(next(i for i, cand in enumerate(cands)
                        if cand.tobytes() == got[0].tobytes()))
    assert picked == {0, 1, 2, 3, 4}


@seed(62)
@settings(deadline=None, max_examples=100)
@given(dim=st.integers(2, 8), s=st.integers(0, 2**32 - 1),
       zeros=st.integers(0, 7), scale=st.floats(0.1, 1.0))
def test_meet_lies_below_both_effects(dim, s, zeros, scale):
    # A - M and B - M are the positive parts of A - B and B - A, so of the
    # meet's four slacks only M >= 0 and M >= K, the two the corner screen
    # reads, can fail, whether or not the pair commutes.
    rng = np.random.default_rng(s)
    a = random_effect(dim, (0, min(zeros, dim - 1)), seed=rng).matrix
    b = scale * random_effect(dim, seed=rng).matrix
    assume(np.linalg.norm(a @ b - b @ a) > 1e-6)
    with hermitian._lapack_checked():
        m = coexistence._meet(a, b)
    assert np.linalg.eigvalsh(np.stack((a - m, b - m)))[:, 0].min() >= -1e-12


def _basis(n):
    """The orthonormal Hermitian basis the barrier's coordinates refer to."""
    r = 1.0 / np.sqrt(2.0)
    out = []
    for j in range(n):
        for k in range(n):
            e = np.zeros((n, n), dtype=complex)
            if j == k:
                e[j, j] = 1.0
            elif j < k:
                e[j, k] = e[k, j] = r
            else:
                e[j, k], e[k, j] = 1j * r, -1j * r
            out.append(e)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hessian_matches_its_definition(n):
    # Entry (k, l) of the Hessian of -sum_i log det(C_i + sigma_i X - tI) is
    # sum_i tr(W_i D_k W_i D_l), D being E_k or -I for t; sigma = +,-,-,+.
    rng = np.random.default_rng(n)
    slacks = []
    for _ in range(4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        slacks.append(g @ g.conj().T + 0.1 * np.eye(n))
    w, v = np.linalg.eigh(np.stack(slacks))
    inv_w = 1.0 / w
    wi = (v * inv_w[:, None, :]) @ v.conj().swapaxes(1, 2)
    wsq = (v * (inv_w * inv_w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    basis = _basis(n)
    sigma = (1.0, -1.0, -1.0, 1.0)
    dirs = [[s * e for s in sigma] for e in basis] + [[-np.eye(n)] * 4]
    expected = np.array([[sum(np.trace(wi[i] @ dk[i] @ wi[i] @ dl[i]).real
                              for i in range(4)) for dl in dirs] for dk in dirs])
    hess = coexistence._hessian(wi, wsq, inv_w)
    assert np.allclose(hess, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    # The weights map coordinates to matrices and back.
    weights, coords = coexistence._coordinates(n)
    x = rng.standard_normal((n, n))
    v_x = weights * x
    mat = v_x + v_x.conj().T
    assert np.allclose(mat, sum(c * e for c, e in zip(x.ravel(), basis)))
    assert np.allclose((coords * mat).real, x)


def _not_coexistent_dual():
    a, b = _criterion6_pair(3, 70)
    res = decide(a, b)
    assert res.verdict == Verdict.NOT_COEXISTENT
    return a, b, res.dual


def test_solver_dual_is_normalised_and_read_only():
    a, b, dual = _not_coexistent_dual()
    z2, z3, z4 = dual
    total = np.trace(z2 + z3 - z4) + sum(np.trace(z) for z in dual)
    assert total.real == pytest.approx(1.0, abs=1e-12)
    assert all(not z.flags.writeable for z in dual)
    assert verify_dual(a, b, *dual)
    # The dual belongs to the pair in the caller's order.
    res = decide(b, a)
    assert verify_dual(b, a, *res.dual)
    assert np.array_equal(res.dual[0], z3) and np.array_equal(res.dual[1], z2)


def _decision_bytes(res):
    parts = [e.matrix for e in res.witness or ()] + list(res.dual or ())
    return (res.verdict, res.reason, float(res.residual).hex(), res.iterations,
            [x.tobytes() for x in parts])


def test_in_place_buffers_alias_nothing():
    """decide's stacks are filled in place; no answer may share them or an input."""
    def diag(*w):
        return Effect(np.diag(w).astype(complex))

    pairs = [  # (A, B, reason, Newton steps taken)
        (diag(0.3, 0.3, 0.3), random_effect(3, seed=1), Reason.SCALAR_RULE, 0),
        (diag(1.0, 0.0, 0.0), diag(0.2, 0.5, 0.8), Reason.PROJECTION_RULE, 0),
        (diag(0.9, 0.2, 0.4), diag(0.3, 0.8, 0.4), Reason.COMMUTE_RULE, 0),
        (*rank_one_pair(0.6, 0.6, 0.25), Reason.RANK_ONE_RULE, 0),
        (random_effect(2, seed=1000), random_effect(2, seed=2000), None, 0),
        (random_effect(4, seed=1001), random_effect(4, seed=2001), None, 3),
        (random_effect(4, seed=1008), random_effect(4, seed=2008), None, 2),
    ]
    effects = [e for a, b, _, _ in pairs for e in (a, b)]
    before = [e.matrix.tobytes() for e in effects]
    answers, arrays = [], []
    for a, b, reason, steps in pairs:
        for fast in (True, False):
            res = decide(a, b, fast_paths=fast)
            if fast or reason is None:
                assert res.reason is (reason or Reason.FEASIBILITY_SOLVER)
                assert res.iterations == steps
            answers.append((a, b, fast, _decision_bytes(res)))
            arrays.append([e.matrix for e in res.witness or ()] + list(res.dual or ()))
    assert {a[3][0] for a in answers} == set(Verdict) - {Verdict.INDETERMINATE}

    assert [e.matrix.tobytes() for e in effects] == before
    assert not any(e.matrix.flags.writeable for e in effects)
    for n in (2, 3, 4):
        eye = coexistence._identity(n)
        assert not eye.flags.writeable and np.array_equal(eye, np.eye(n))
    for i, own in enumerate(arrays):
        others = [x for j, xs in enumerate(arrays) if j != i for x in xs]
        for x in own:
            assert not any(np.shares_memory(x, y) for y in others + [e.matrix for e in effects])
    for a, b, fast, answer in answers:
        assert _decision_bytes(decide(a, b, fast_paths=fast)) == answer


def test_verify_dual_fails_closed():
    a, b, dual = _not_coexistent_dual()
    dim = a.dim
    for value in (np.nan, np.inf, -np.inf):
        for i in range(3):
            bad = list(dual)
            bad[i] = np.full((dim, dim), value, dtype=complex)
            assert not verify_dual(a, b, *bad)
        assert not verify_dual(np.full((dim, dim), value), b, *dual)
    for shape in ((2, 2), (dim,), (1, 1), (dim, dim, 1)):
        for i in range(3):
            bad = list(dual)
            bad[i] = np.zeros(shape)
            assert not verify_dual(a, b, *bad)
    assert not verify_dual(a, random_effect(2, seed=1), *dual)
    assert not verify_dual(np.zeros(3), np.zeros(3), *dual)
    # A non-Hermitian A, a zero dual and a sign-flipped dual prove nothing.
    skew = a.matrix + 1e-6 * np.triu(np.ones((dim, dim)), 1)
    assert not verify_dual(skew, b, *dual)
    assert not verify_dual(a, b, *(np.zeros((dim, dim)),) * 3)
    assert not verify_dual(a, b, *(-z for z in dual))
    # Scale does not matter, and entries near the float limit do not overflow.
    assert verify_dual(a, b, *(1e300 * z for z in dual))
    huge = np.full((dim, dim), 1.5e308, dtype=complex)
    assert not verify_dual(a, b, huge, huge, huge)
    with pytest.raises(ValueError):
        verify_dual(a, b, *dual, tol=-1.0)


def test_verify_dual_rejects_coexistent_pairs():
    # No dual can prove a coexistent pair incompatible: this one proves
    # (A, B) so, and fails against pairs that do coexist.
    a, b, dual = _not_coexistent_dual()
    dim = a.dim
    for pair in ((a, a), (a, orthocomplement(a)), (b, Effect(np.zeros((dim, dim)))),
                 (0.5 * np.eye(dim), b), (a, sample_coexistent(a, 1, seed=3)[0])):
        assert not verify_dual(*pair, *dual)
    # Nor does the dual survive being shifted onto a coexistent pair.
    z2, z3, z4 = dual
    for c in sample_coexistent(a, 5, seed=4):
        assert decide(a, c).coexistent
        assert not verify_dual(a, c, z2, z3, z4)


@seed(61)
@settings(deadline=None, max_examples=100)
@given(dim=st.integers(2, 5), s=st.integers(0, 2**32 - 1),
       scales=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_verify_dual_is_sound_near_its_penalty(dim, s, scales):
    # For a witness's slacks S_i (i = 2, 3, 4), Z_i = d vv* - c uu*, with u
    # and v the top and bottom eigenvectors of S_i, pays -c ||S_i|| in the
    # value and little back.  Most such duals pass if the penalty for
    # negative eigenvalues is dropped; a witness exists, so none may pass.
    rng = np.random.default_rng(s)
    a = random_effect(dim, seed=rng)
    b = sample_coexistent(a, 1, seed=rng)[0]
    res = decide(a, b)
    assert res.coexistent
    m = as_matrix(res.witness[0])
    k = a.matrix + b.matrix - np.eye(dim)
    zs = []
    for x, c, d in zip((a.matrix - m, b.matrix - m, m - k), scales[:3], scales[3:]):
        v = np.linalg.eigh(x)[1]
        zs.append(d * np.outer(v[:, 0], v[:, 0].conj())
                  - c * np.outer(v[:, -1], v[:, -1].conj()))
    assert not verify_dual(a, b, *zs, tol=1e-300)


def test_scalar_rule():
    b = random_effect(3, seed=1)
    for t in (0.0, 0.3, 1.0):
        res = decide(Effect(t * np.eye(3, dtype=complex)), b)
        assert res.verdict == Verdict.COEXISTENT
        assert res.reason == Reason.SCALAR_RULE
        assert verify_mn(t * np.eye(3, dtype=complex), b, *res.witness)
    # scalar in second position works the same
    res = decide(b, Effect(0.3 * np.eye(3, dtype=complex)))
    assert res.verdict == Verdict.COEXISTENT
    assert verify_mn(b, 0.3 * np.eye(3), *res.witness)


def test_projection_rule_commuting():
    p = random_projection(3, 1, seed=2)
    b = Effect(np.diag([0.2, 0.5, 0.8]).astype(complex))
    pd = Effect(np.diag([1.0, 0.0, 0.0]).astype(complex))
    res = decide(pd, b)
    assert res.verdict == Verdict.COEXISTENT
    assert res.reason in (Reason.PROJECTION_RULE, Reason.COMMUTE_RULE)
    assert verify_mn(pd, b, *res.witness)
    assert p.dim == 3


def test_projection_rule_noncommuting():
    p = Effect(np.diag([1.0, 0.0]).astype(complex))
    v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    q = Effect(0.5 * np.outer(v, v).astype(complex))
    res = decide(p, q)
    assert res.verdict == Verdict.NOT_COEXISTENT
    assert res.reason == Reason.PROJECTION_RULE
    assert res.witness is None


def test_commute_rule_witness():
    a = Effect(np.diag([0.9, 0.2, 0.4]).astype(complex))
    b = Effect(np.diag([0.3, 0.8, 0.4]).astype(complex))
    res = decide(a, b)
    assert res.verdict == Verdict.COEXISTENT
    assert res.reason == Reason.COMMUTE_RULE
    m, n = res.witness
    # for commuting pairs the natural witness is the lattice meet
    assert np.allclose(np.diag(as_matrix(m)).real, [0.3, 0.2, 0.4], atol=1e-12)
    assert verify_mn(a, b, m, n)


def test_fast_path_none_on_generic_pair():
    a = random_effect(3, seed=3)
    b = random_effect(3, seed=4)
    assert fast_path(a, b) is None


def test_solver_on_sampled_coexistent_pairs():
    for s in range(10):
        a = random_effect(3, seed=100 + s)
        for b in sample_coexistent(a, 2, seed=200 + s):
            res = decide(a, b, fast_paths=False)
            assert res.verdict == Verdict.COEXISTENT
            assert res.residual <= FEAS_TOL
            assert verify_mn(a, b, *res.witness)


def test_solver_residual_bounds_on_not_pairs():
    a, b = rank_one_pair(0.6, 0.6, 0.81)
    res = decide(a, b, fast_paths=False)
    assert res.verdict == Verdict.NOT_COEXISTENT
    assert res.residual >= SEP_TOL
    assert res.witness is None


def test_decide_symmetric_in_arguments():
    a = random_effect(4, seed=5)
    b = random_effect(4, seed=6)
    r1 = decide(a, b, fast_paths=False)
    r2 = decide(b, a, fast_paths=False)
    assert r1.verdict == r2.verdict
    assert r1.iterations == r2.iterations
    assert r1.residual == r2.residual
    if r1.witness is not None:
        assert verify_mn(a, b, *r1.witness)
        assert verify_mn(b, a, *r2.witness)


def test_decide_dimension_mismatch():
    with pytest.raises(ValueError):
        decide(random_effect(2, seed=0), random_effect(3, seed=0))


def test_reflexivity_and_orthocomplement():
    for s in range(5):
        a = random_effect(3, seed=300 + s)
        r1 = decide(a, a)
        assert r1.verdict == Verdict.COEXISTENT
        assert verify_mn(a, a, *r1.witness)
        r2 = decide(a, orthocomplement(a))
        assert r2.verdict == Verdict.COEXISTENT
        assert verify_mn(a, orthocomplement(a), *r2.witness)


def test_conjugation_equivariance():
    a = random_effect(3, seed=7)
    b = random_effect(3, seed=8)
    base = decide(a, b, fast_paths=False).verdict
    for s in range(3):
        u = random_unitary(3, np.random.default_rng(400 + s))
        moved = decide(conjugate(a, u), conjugate(b, u), fast_paths=False).verdict
        assert moved == base


# Swapping the pair, or relabelling the outcomes of either measurement
# {A, I - A} or {B, I - B}, cannot change whether they coexist.  Each
# variant's certificate carries back to (A, B) by an exact formula, so the
# orbit checks every verdict, witness and dual with no second decider.  A
# variant's dual (Z2, Z3, Z4) carries back with Z1 = Z2 + Z3 - Z4.
def _dual_swapped(z2, z3, z4):
    return z3, z2, z4


def _dual_perp_a(z2, z3, z4):
    return z4, z2 + z3 - z4, z2


def _dual_perp_b(z2, z3, z4):
    return z2 + z3 - z4, z4, z3


def test_symmetry_orbit_agrees_and_certificates_carry_back():
    witnesses = duals = 0
    for dim in (2, 3, 4, 5):
        eye = np.eye(dim)
        for index in range(50):
            rng = trial_rng(0, f"acc6:{dim}", index)
            a = random_effect(dim, seed=rng)
            b = random_effect(dim, seed=rng)
            am, bm = a.matrix, b.matrix
            ca, cb = orthocomplement(a), orthocomplement(b)
            # (variant pair, its witness M' carried to M, its dual carried back)
            variants = (
                ((a, b), lambda m: m, lambda *z: z),
                ((b, a), lambda m: m, _dual_swapped),
                ((ca, b), lambda m: bm - m, _dual_perp_a),
                ((a, cb), lambda m: am - m, _dual_perp_b),
                ((ca, cb), lambda m: m + am + bm - eye,
                 lambda *z: _dual_perp_b(*_dual_perp_a(*z))),
            )
            verdicts = set()
            for (x, y), carry_m, carry_z in variants:
                res = decide(x, y)
                verdicts.add(res.verdict)
                if res.witness is not None:
                    m = carry_m(res.witness[0].matrix)
                    assert verify_mn(a, b, m, bm - m), (dim, index)
                    witnesses += 1
                if res.dual is not None:
                    assert verify_dual(a, b, *carry_z(*res.dual)), (dim, index)
                    duals += 1
            assert len(verdicts) == 1, (dim, index, verdicts)
    assert (witnesses, duals) == (905, 95)


@seed(105)
@settings(deadline=None, max_examples=40)
@given(t=st.floats(0.0, 1.0), s=st.integers(0, 1000))
def test_scalar_absorption_property(t, s):
    b = random_effect(2, seed=s)
    res = decide(Effect(t * np.eye(2, dtype=complex)), b)
    assert res.verdict == Verdict.COEXISTENT


def test_mn_to_efg_frozen_cases():
    a = random_effect(3, seed=9)
    am = as_matrix(a)
    eye = np.eye(3)
    e, f, g = mn_to_efg(np.zeros((3, 3)), eye - am, a, orthocomplement(a))
    assert np.allclose(e, am, atol=1e-15)
    assert np.allclose(f, eye - am, atol=1e-15)
    assert np.allclose(g, 0.0, atol=1e-15)
    e, f, g = mn_to_efg(am, np.zeros((3, 3)), a, a)
    assert np.allclose(e, 0.0, atol=1e-15)
    assert np.allclose(f, 0.0, atol=1e-15)
    assert np.allclose(g, am, atol=1e-15)


def test_certificate_round_trip_exact():
    a = random_effect(3, seed=10)
    b = sample_coexistent(a, 1, seed=11)[0]
    res = decide(a, b, fast_paths=False)
    m, n = res.witness
    e, f, g = mn_to_efg(m, n, a, b)
    assert verify_efg(a, b, e, f, g)
    m2, n2 = efg_to_mn(e, f, g, a, b)
    assert np.linalg.norm(m2 - as_matrix(m)) <= 1e-12
    assert np.linalg.norm(n2 - as_matrix(n)) <= 1e-12


def test_verify_efg_frozen_true_case():
    a = random_effect(3, seed=12)
    am = as_matrix(a)
    assert verify_efg(a, orthocomplement(a), am, np.eye(3) - am, np.zeros((3, 3)))


def test_verify_rejects_perturbed_certificate():
    a = random_effect(3, seed=13)
    am = as_matrix(a)
    g_bad = np.zeros((3, 3), dtype=complex)
    g_bad[0, 0] = 1e-3
    assert not verify_efg(a, orthocomplement(a), am, np.eye(3) - am, g_bad)


def test_invalid_certificate_details():
    a = random_effect(2, seed=14)
    bad = -0.01 * np.eye(2)
    with pytest.raises(InvalidCertificate) as err:
        mn_to_efg(bad, np.zeros((2, 2)), a, a)
    assert "M" in err.value.constraint
    assert err.value.margin >= 0.009


def test_verifiers_fail_closed_on_non_finite_witnesses():
    for dim in (2, 3):
        a = random_effect(dim, seed=13)
        b = orthocomplement(a)
        for value in (np.nan, np.inf, -np.inf):
            w = np.full((dim, dim), value, dtype=complex)
            assert not verify_mn(a, b, w, w)
            assert not verify_efg(a, b, w, w, w)
            with pytest.raises(InvalidCertificate):
                mn_to_efg(w, w, a, b)
            with pytest.raises(InvalidCertificate):
                efg_to_mn(w, w, w, a, b)


def test_witness_checks_refuse_a_non_hermitian_pair():
    # On the Hermitian parts of its matrices each certificate below meets
    # every constraint, so only the Hermitian test of A or B refuses it, as
    # verify_dual refuses the same A.
    skew = np.array([[0.5, 0.3], [-0.3, 0.5]])
    half, quarter = 0.5 * np.eye(2), 0.25 * np.eye(2)
    for a, b, m, n, name in ((skew, half, quarter, quarter, "A"),
                             (half, skew, skew / 2.0, skew / 2.0, "B")):
        assert not verify_mn(a, b, m, n)
        assert not verify_efg(a, b, a - m, n, m)
        for convert, args in ((mn_to_efg, (m, n, a, b)), (efg_to_mn, (a - m, n, m, a, b))):
            with pytest.raises(InvalidCertificate) as err:
                convert(*args)
            assert err.value.constraint == f"{name} Hermitian"
            assert err.value.margin == pytest.approx(0.6)
    inf = np.diag([np.inf, 0.5])
    assert not verify_mn(inf, half, quarter, quarter)
    with pytest.raises(InvalidCertificate, match="A Hermitian by nan"):
        mn_to_efg(quarter, quarter, inf, half)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_verifiers_fail_closed_on_huge_finite_witnesses():
    # Finite entries near the float limit overflow X + X* and I - A - N;
    # the verifiers must answer False, not raise LinAlgError.
    a = random_effect(3, seed=13)
    b = orthocomplement(a)
    zero = np.zeros((3, 3))
    for value in (1.5e308, -1.5e308, 1.5e308j):
        z = np.full((3, 3), value, dtype=complex)
        assert not verify_mn(a, b, z, z)
        assert not verify_mn(a, b, z, -z)
        assert not verify_mn(a, b, zero, z)
        assert not verify_efg(a, b, z, z, z)
        assert not verify_efg(a, b, zero, zero, z)


def test_verifiers_fail_closed_on_wrongly_shaped_witnesses():
    a = random_effect(3, seed=13)
    b = orthocomplement(a)
    for w in (np.zeros((2, 2)), np.zeros((1, 1)), np.zeros(3), np.zeros(1)):
        assert not verify_mn(a, b, w, w)
        assert not verify_efg(a, b, w, w, w)
        with pytest.raises(InvalidCertificate) as err:
            mn_to_efg(w, w, a, b)
        assert np.isnan(err.value.margin)
        with pytest.raises(InvalidCertificate):
            efg_to_mn(w, w, w, a, b)
    # A and B must agree with each other, and A must be square.
    z = np.zeros((3, 3))
    assert not verify_mn(a, random_effect(2, seed=14), z, z)
    assert not verify_efg(a, random_effect(2, seed=14), z, z, z)
    assert not verify_mn(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))


def test_decide_and_the_certificate_checks_refuse_what_is_not_numbers():
    # A part numpy would read as numbers only by parsing strings, or that
    # holds bools or objects, fails closed: the verifiers answer False and
    # the converters raise InvalidCertificate with margin NaN.
    a = random_effect(3, seed=10)
    b = sample_coexistent(a, 1, seed=11)[0]
    m, n = decide(a, b, fast_paths=False).witness
    c, d = _criterion6_pair(3, 70)
    dual = decide(c, d).dual
    with pytest.raises(ValueError, match="must hold real or complex numbers"):
        decide(a.matrix.astype(str), b)
    for bad in (a.matrix.astype(str), a.matrix.astype(object), np.eye(3, dtype=bool)):
        assert not verify_mn(bad, b, m, n)
        assert not verify_mn(a, b, bad, n)
        assert not verify_efg(a, b, bad, n, m)
        assert not verify_dual(c, d, dual[0], bad, dual[2])
        for convert, args in ((mn_to_efg, (bad, n, a, b)), (efg_to_mn, (bad, n, m, a, b))):
            with pytest.raises(InvalidCertificate) as err:
                convert(*args)
            assert err.value.constraint == "numeric entries" and np.isnan(err.value.margin)
    assert verify_mn(a, b, m, n) and verify_dual(c, d, *dual)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_verifiers_fail_closed_when_the_eigensolver_fails(monkeypatch):
    # The certificate checks call the gufunc outside _lapack_checked; fed
    # NaN, it fails as on non-convergence.  The verifiers answer False, and
    # the converters and _check_dual raise InvalidCertificate with margin NaN.
    # Under the caller's np.errstate(invalid="raise") every one of them
    # raises FloatingPointError: no verifier answers True either way.
    a = random_effect(3, seed=10)
    b = sample_coexistent(a, 1, seed=11)[0]
    m, n = decide(a, b, fast_paths=False).witness
    e, f, g = mn_to_efg(m, n, a, b)
    c, d = _criterion6_pair(3, 70)
    dual = decide(c, d).dual
    assert verify_mn(a, b, m, n) and verify_efg(a, b, e, f, g) and verify_dual(c, d, *dual)
    real = coexistence._eigvalsh_lo
    monkeypatch.setattr(coexistence, "_eigvalsh_lo", lambda x: real(np.full_like(x, np.nan)))
    assert verify_mn(a, b, m, n) is False
    assert verify_efg(a, b, e, f, g) is False
    assert verify_dual(c, d, *dual) is False
    for convert, args, constraint in ((mn_to_efg, (m, n, a, b), "M >= 0"),
                                      (efg_to_mn, (e, f, g, a, b), "E >= 0"),
                                      (coexistence._check_dual, (c, d, *dual, CERT_TOL),
                                       f"dual bound < -{CERT_TOL:g}")):
        with pytest.raises(InvalidCertificate) as err:
            convert(*args)
        assert err.value.constraint == constraint and np.isnan(err.value.margin)
    calls = [(verify_mn, (a, b, m, n)), (verify_efg, (a, b, e, f, g)), (verify_dual, (c, d, *dual)),
             (mn_to_efg, (m, n, a, b)), (efg_to_mn, (e, f, g, a, b)),
             (coexistence._check_dual, (c, d, *dual, CERT_TOL))]
    with np.errstate(invalid="raise"):
        for check, args in calls:
            with pytest.raises(FloatingPointError):
                check(*args)


def test_rank_one_rule_raises_when_the_eigensolver_fails(monkeypatch):
    # Rule 4's peak is read outside _lapack_checked: a failed eigvalsh must
    # raise, not compare NaN with 1 and give a verdict.  On this 2 x 2 pair
    # LAPACK returns the NaN without reporting it, so even under the
    # caller's np.errstate(invalid="raise") the NaN test raises LinAlgError.
    a, b = rank_one_pair(0.6, 0.6, 0.3)
    assert fast_path(a, b).reason == Reason.RANK_ONE_RULE
    real = coexistence._eigvalsh_lo
    monkeypatch.setattr(coexistence, "_eigvalsh_lo", lambda x: real(np.full_like(x, np.nan)))
    with pytest.raises(np.linalg.LinAlgError):
        fast_path(a, b)
    with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError):
        fast_path(a, b)


def test_frobenius_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(44)
    for n in range(1, 9):
        for _ in range(20):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for d in (x, x @ x.conj().T - x.conj().T @ x, 1e-160 * x, 1e150 * x):
                assert coexistence._frobenius(d).hex() == float(np.linalg.norm(d)).hex()


def test_validation_rules_and_certificates_call_no_numpy_wrapper(monkeypatch):
    # Effect validation, the four exact rules, a corner hit, a barrier
    # NotCoexistent pair and the five certificate functions call LAPACK's
    # gufuncs directly and fill their stacks in place.  With np.linalg.eigh,
    # eigvalsh and norm and np.stack raising, each gives its usual answer.
    rng = trial_rng(0, "wrapper-free", 0)
    pairs = [rule_instance(family, 3, rng)[:2] for family in RULE_FAMILIES]
    pairs += [_criterion6_pair(3, 0), _criterion6_pair(3, 70)]
    raw = [(a.matrix.copy(), b.matrix.copy()) for a, b in pairs]

    def run():
        out = []
        for a_raw, b_raw in raw:
            a, b = Effect(a_raw), Effect(b_raw)
            res = decide(a, b)
            answer = [res.verdict, res.reason, res.iterations, float(res.residual).hex(),
                      a.matrix.tobytes(), b.matrix.tobytes(), a.eigenvalues.tobytes()]
            if res.witness is not None:
                m, n = res.witness
                e, f, g = mn_to_efg(m, n, a, b)
                answer += [verify_mn(a, b, m, n), verify_efg(a, b, e, f, g),
                           [x.tobytes() for x in (m.matrix, n.matrix, e, f, g,
                                                  *efg_to_mn(e, f, g, a, b))]]
            if res.dual is not None:
                answer += [verify_dual(a, b, *res.dual), [z.tobytes() for z in res.dual]]
            out.append(answer)
        return out

    usual = run()
    kinds = [(x[1], x[0], x[2] == 0) for x in usual]
    assert {reason for reason, _, _ in kinds} == set(Reason) - {Reason.BLOCKWISE}
    assert (Reason.FEASIBILITY_SOLVER, Verdict.COEXISTENT, True) in kinds
    assert (Reason.FEASIBILITY_SOLVER, Verdict.NOT_COEXISTENT, False) in kinds
    assert all(v for x in usual for v in x if isinstance(v, bool))  # every verifier accepts

    def banned(*args, **kwargs):
        raise AssertionError("a numpy wrapper was called")

    for name in ("eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, banned)
    monkeypatch.setattr(np, "stack", banned)
    assert run() == usual


def test_decide_rejects_non_finite_input():
    for dim in (2, 3):
        bad = np.diag([np.nan] + [0.5] * (dim - 1))
        with pytest.raises(NotHermitian):
            decide(bad, random_effect(dim, seed=0))


def test_decide_blockwise_scalar_blocks():
    blocks_a = [Effect(0.3 * np.eye(2, dtype=complex)), Effect(0.7 * np.eye(2, dtype=complex))]
    blocks_b = [random_effect(2, seed=15), random_effect(2, seed=16)]
    res = decide_blockwise(blocks_a, blocks_b)
    assert res.verdict == Verdict.COEXISTENT
    assert res.reason == Reason.BLOCKWISE
    m, n = res.witness
    a_sum = direct_sum([as_matrix(x) for x in blocks_a])
    b_sum = direct_sum([as_matrix(x) for x in blocks_b])
    assert verify_mn(a_sum, b_sum, m, n)


def test_decide_blockwise_noncommuting_projection_block():
    p = Effect(np.diag([1.0, 0.0]).astype(complex))
    v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    q = Effect(0.5 * np.outer(v, v).astype(complex))
    res = decide_blockwise([p, random_effect(2, seed=17)],
                           [q, random_effect(2, seed=18)])
    assert res.verdict == Verdict.NOT_COEXISTENT
    assert res.witness is None
    assert res.dual is None  # settled by the projection rule, not the solver


def test_decide_blockwise_pads_the_solver_dual():
    # Criterion 6's pair dim 3 #70 is NotCoexistent by the barrier method.
    # As the middle of three blocks its dual, padded with zero blocks,
    # proves the direct sums incompatible.
    a, b = _criterion6_pair(3, 70)
    block = decide(a, b)
    a_blocks = [random_effect(2, seed=19), a, 0.5 * np.eye(4)]
    b_blocks = [random_effect(2, seed=20), b, random_effect(4, seed=21)]
    res = decide_blockwise(a_blocks, b_blocks)
    assert res.verdict == Verdict.NOT_COEXISTENT
    assert res.reason == Reason.BLOCKWISE
    a_sum = direct_sum([as_matrix(x) for x in a_blocks])
    b_sum = direct_sum([as_matrix(x) for x in b_blocks])
    assert verify_dual(a_sum, b_sum, *res.dual)
    for z, z_block in zip(res.dual, block.dual):
        assert not z.flags.writeable
        assert np.array_equal(z[2:5, 2:5], z_block)
        assert np.count_nonzero(z) == np.count_nonzero(z_block)


def test_decide_blockwise_agrees_with_assembly():
    for s in range(5):
        a1, b1 = random_effect(2, seed=500 + s), random_effect(2, seed=600 + s)
        a2 = random_effect(2, seed=700 + s)
        b2 = sample_coexistent(a2, 1, seed=800 + s)[0]
        block = decide_blockwise([a1, a2], [b1, b2])
        whole = decide(Effect(direct_sum([as_matrix(a1), as_matrix(a2)])),
                       Effect(direct_sum([as_matrix(b1), as_matrix(b2)])))
        definite = (Verdict.COEXISTENT, Verdict.NOT_COEXISTENT)
        if block.verdict in definite and whole.verdict in definite:
            assert block.verdict == whole.verdict


def test_decide_blockwise_mismatch():
    with pytest.raises(ValueError):
        decide_blockwise([random_effect(2, seed=0)], [])
    with pytest.raises(ValueError):
        decide_blockwise([random_effect(2, seed=0)], [random_effect(3, seed=0)])
    with pytest.raises(ValueError, match="need at least one block"):
        decide_blockwise([], [])


def test_decide_blockwise_indeterminate_block():
    # (A, cB) with c about 5e-5 past the coexistence threshold: its margin
    # lies between -SEP_TOL and -FEAS_TOL, so decide leaves it Indeterminate.
    # The block (A, B) after it, Coexistent in 4 Newton steps, is still decided.
    rng = np.random.default_rng(0)
    a, b = random_effect(2, seed=rng), random_effect(2, seed=rng)
    blocks = [(a, Effect(1.13939 * b.matrix)), (a, b)]
    parts = [decide(x, y) for x, y in blocks]
    assert [p.verdict for p in parts] == [Verdict.INDETERMINATE, Verdict.COEXISTENT]
    res = decide_blockwise(*zip(*blocks))
    assert (res.verdict, res.reason) == (Verdict.INDETERMINATE, Reason.BLOCKWISE)
    assert res.residual == max(p.residual for p in parts)
    assert res.iterations == sum(p.iterations for p in parts) > parts[0].iterations
    assert res.witness is None and res.dual is None


def test_sample_coexistent_endpoint_cases():
    zero, eye = Effect(np.zeros((3, 3))), Effect(np.eye(3))
    for b in sample_coexistent(zero, 5, seed=19):
        assert decide(zero, b).verdict == Verdict.COEXISTENT
    for b in sample_coexistent(eye, 5, seed=20):
        assert decide(eye, b).verdict == Verdict.COEXISTENT


def test_sample_coexistent_witnesses_verify():
    a = random_effect(3, seed=21)
    samples = sample_coexistent(a, 50, seed=22)
    assert len(samples) == 50
    for b in samples:
        res = decide(a, b)
        assert res.verdict == Verdict.COEXISTENT
        assert verify_mn(a, b, *res.witness)


def test_convexity_of_coexistent_samples():
    a = random_effect(3, seed=23)
    b1, b2 = sample_coexistent(a, 2, seed=24)
    for t in (0.25, 0.5, 0.75):
        mix = Effect(t * as_matrix(b1) + (1.0 - t) * as_matrix(b2))
        assert decide(a, mix).verdict != Verdict.NOT_COEXISTENT


def test_verdict_dataclass_shape():
    a = random_effect(2, seed=26)
    res = decide(a, a)
    assert isinstance(res, CoexistenceVerdict)
    assert res.coexistent
    assert res.definite
    assert res.residual >= 0.0
    frozen = decide(a, a)
    with pytest.raises(AttributeError):
        frozen.verdict = Verdict.NOT_COEXISTENT


def test_witnesses_are_not_validated_again(monkeypatch):
    # Every witness is built from validated effects, so _coexistent only
    # symmetrises it: a scalar-rule pair, a corner hit (A + B <= I, so
    # M = 0) and a barrier pair are all decided and verified with the
    # validator broken, once the effects are built.
    def refuse(matrix):
        raise AssertionError("require_hermitian called on a witness")

    rng = trial_rng(0, "acc6:3", 14)
    a, b = random_effect(3, seed=rng), random_effect(3, seed=rng)
    cases = ((Effect(0.4 * np.eye(3)), a, True, Reason.SCALAR_RULE, 0),
             (Effect(a.matrix / 3.0), Effect(b.matrix / 3.0), False,
              Reason.FEASIBILITY_SOLVER, 0),
             (a, b, True, Reason.FEASIBILITY_SOLVER, 2))
    monkeypatch.setattr(hermitian, "require_hermitian", refuse)
    for x, y, fast, reason, steps in cases:
        res = decide(x, y, fast_paths=fast)
        assert res.coexistent and res.reason == reason and res.iterations == steps
        assert verify_mn(x, y, *res.witness)


def test_cert_tol_constant_wired():
    assert CERT_TOL == 1e-6


def _unbiased_qubit_effect(r) -> Effect:
    """(I + r . sigma) / 2 for a Bloch vector r with |r| <= 1."""
    x, y, z = r
    return Effect(0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]))


_BLOCH = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                   st.floats(0.0, 1.0))


@seed(113)
@settings(deadline=None, max_examples=200)
@given(p=_BLOCH, q=_BLOCH)
def test_unbiased_qubit_pairs_follow_busch(p, q):
    # Busch, Phys. Rev. D 33, 2253 (1986): (I + a.sigma)/2 and (I + b.sigma)/2
    # coexist iff |a + b| + |a - b| <= 2.  An oracle independent of decide.
    vectors = []
    for *direction, radius in (p, q):
        norm = np.linalg.norm(direction)
        assume(norm >= 1e-3)
        vectors.append(radius * np.asarray(direction) / norm)
    a_vec, b_vec = vectors
    s = np.linalg.norm(a_vec + b_vec) + np.linalg.norm(a_vec - b_vec)
    assume(abs(s - 2.0) >= 1e-4)
    a, b = _unbiased_qubit_effect(a_vec), _unbiased_qubit_effect(b_vec)
    for fast in (True, False):
        res = decide(a, b, fast_paths=fast)
        assert res.definite and res.coexistent == (s <= 2.0), (fast, s, res.reason)

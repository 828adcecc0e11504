import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effectkit import coexistence, hermitian
from effectkit.coexistence import (
    CERT_TOL,
    CoexistenceVerdict,
    InvalidCertificate,
    Reason,
    SolverConfig,
    Verdict,
    decide,
    decide_blockwise,
    efg_to_mn,
    fast_path,
    interior_perturbation,
    mn_to_efg,
    sample_coexistent,
    verify_dual,
    verify_efg,
    verify_mn,
)
from effectkit.harness import trial_rng
from effectkit.hermitian import (
    Effect,
    NotHermitian,
    as_matrix,
    conjugate,
    direct_sum,
    identity_effect,
    operator_norm,
    orthocomplement,
    random_effect,
    random_projection,
    random_unitary,
    sqrt_psd,
    strictly_less,
    zero_effect,
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
# 6's generic stream, which the corner check does not settle.  A step is a
# Newton step; a corner candidate takes none.
FROZEN_RANK_ONE_CYCLES = (0, 11, 14)
FROZEN_GENERIC = (
    (2, 63, Verdict.COEXISTENT, 5),
    (2, 89, Verdict.COEXISTENT, 10),
    (2, 166, Verdict.COEXISTENT, 6),
    (3, 70, Verdict.NOT_COEXISTENT, 14),
    (3, 51, Verdict.COEXISTENT, 11),
    (4, 13, Verdict.NOT_COEXISTENT, 19),
    (5, 17, Verdict.NOT_COEXISTENT, 17),
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
    for pair in ((a, a), (a, orthocomplement(a)), (b, zero_effect(dim)),
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
            assert res.residual <= SolverConfig.feas_tol
            assert verify_mn(a, b, *res.witness)


def test_solver_residual_bounds_on_not_pairs():
    a, b = rank_one_pair(0.6, 0.6, 0.81)
    res = decide(a, b, fast_paths=False)
    assert res.verdict == Verdict.NOT_COEXISTENT
    assert res.residual >= SolverConfig.sep_tol
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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(feas_tol=1e-4, sep_tol=1e-5)
    with pytest.raises(ValueError):
        SolverConfig(max_cycles=0)


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


def test_sample_coexistent_endpoint_cases():
    for b in sample_coexistent(zero_effect(3), 5, seed=19):
        assert decide(zero_effect(3), b).verdict == Verdict.COEXISTENT
    for b in sample_coexistent(identity_effect(3), 5, seed=20):
        assert decide(identity_effect(3), b).verdict == Verdict.COEXISTENT


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


def test_interior_perturbation_zero_inside_identity():
    c = interior_perturbation(np.eye(4), np.zeros((4, 4)), 0.1)
    w = np.linalg.eigvalsh(c)
    assert w[0] > 0.0
    assert w[-1] == pytest.approx(w[0])
    assert 0.0 < w[0] <= 0.05


def test_interior_perturbation_upper_clamp():
    a = 0.8 * np.eye(3)
    c = interior_perturbation(a, a.copy(), 0.05)
    ratio = c[0, 0].real / 0.8
    assert 0.0 < ratio < 1.0
    assert np.allclose(c, ratio * a, atol=1e-13)
    assert strictly_less(c, a)


def test_interior_perturbation_posts_on_random_pairs():
    rng = np.random.default_rng(25)
    for _ in range(10):
        a = 0.2 * np.eye(4) + 0.8 * as_matrix(random_effect(4, seed=rng))
        root = sqrt_psd(a)
        b = root @ as_matrix(random_effect(4, seed=rng)) @ root
        eps = 0.05
        c = interior_perturbation(a, b, eps)
        assert strictly_less(np.zeros((4, 4)), c)
        assert strictly_less(c, a)
        assert operator_norm(b - c) < eps


def test_interior_perturbation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interior_perturbation(np.eye(2), 2.0 * np.eye(2), 0.1)   # B above A
    with pytest.raises(ValueError):
        interior_perturbation(np.diag([1.0, 0.0]), np.zeros((2, 2)), 0.1)  # singular A
    for eps in (0.0, -0.1, float("nan"), float("inf")):  # eps not finite and > 0
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            interior_perturbation(np.eye(2), np.zeros((2, 2)), eps)


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


def test_cert_tol_constant_wired():
    assert CERT_TOL == 1e-6

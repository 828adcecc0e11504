import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effectkit import hermitian
from effectkit.hermitian import (
    EFFECT_SPECTRUM_TOL,
    Effect,
    NotHermitian,
    SpectrumOutOfRange,
    as_matrix,
    clamped_effect,
    conjugate,
    direct_sum,
    loewner_leq,
    operator_norm,
    orthocomplement,
    psd_part,
    random_effect,
    random_projection,
    random_unitary,
    require_hermitian,
    require_unitary,
    sqrt_psd,
    trace,
)

# An eigendecomposition reconstructs its input to this Frobenius distance.
RECONSTRUCTION_BOUND = 1e-10

# A fixed 4x4 Hermitian probe.  Its eigenvalues were computed with the
# bisection oracle below (200 halvings on Gershgorin bounds) and frozen.
PROBE_4X4 = np.array([
    [0.50, 0.25 + 0.25j, 0.00, 0.125],
    [0.25 - 0.25j, 0.75, 0.125j, 0.00],
    [0.00, -0.125j, 0.25, 0.0625],
    [0.125, 0.00, 0.0625, 0.50],
], dtype=complex)
PROBE_4X4_EIGENVALUES = (
    0.16331627230079254,
    0.26205754886924781,
    0.55253411382932893,
    1.0220920650006304,
)


def _count_eigenvalues_below(matrix, shift):
    """Inertia of matrix - shift*I from the pivot signs of an LDL sweep.

    The pivots are ratios of consecutive leading principal determinants, so
    counting negative ones counts eigenvalues below the shift without ever
    calling an eigensolver.
    """
    n = matrix.shape[0]
    a = (matrix - shift * np.eye(n)).astype(complex)
    negatives = 0
    for k in range(n):
        pivot = float(a[k, k].real)
        if pivot == 0.0:
            pivot = 1e-300
        if pivot < 0.0:
            negatives += 1
        if k + 1 < n:
            col = a[k + 1:, k].copy()
            a[k + 1:, k + 1:] -= np.outer(col, col.conj()) / pivot
    return negatives


def _eigenvalues(matrix):
    """Ascending eigenvalues of an effect or an exactly Hermitian matrix."""
    return np.linalg.eigvalsh(as_matrix(matrix))


def _as_unit_interval(h):
    """I/2 + H/(2||H||_F), a Hermitian H moved affinely into an effect, and
    2||H||_F, the factor that takes its distances back to H's scale."""
    s = np.linalg.norm(h)
    return (h + s * np.eye(h.shape[0])) / (2.0 * s), 2.0 * s


def eigenvalues_by_bisection(matrix, halvings=200):
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    off = np.sum(np.abs(m), axis=1) - np.abs(np.diag(m))
    lo = float(np.min(np.diag(m).real - off)) - 1.0
    hi = float(np.max(np.diag(m).real + off)) + 1.0
    found = []
    for idx in range(n):
        a, b = lo, hi
        for _ in range(halvings):
            mid = 0.5 * (a + b)
            if _count_eigenvalues_below(m, mid) >= idx + 1:
                b = mid
            else:
                a = mid
        found.append(0.5 * (a + b))
    return np.array(found)


def test_eig_identity():
    w = Effect(np.eye(3, dtype=complex)).eig.eigenvalues
    assert np.allclose(w, 1.0, atol=1e-14)


def test_eig_diagonal_sorted_ascending():
    w = Effect(np.diag([1 / 3, 1 / 4, 1 / 5]).astype(complex)).eig.eigenvalues
    assert np.allclose(w, [1 / 5, 1 / 4, 1 / 3], atol=1e-14)


def test_eig_matches_frozen_bisection_values():
    # Halving is exact, so PROBE_4X4 / 2 is an effect with half the values.
    w = Effect(PROBE_4X4 / 2.0).eigenvalues
    assert np.allclose(2.0 * w, PROBE_4X4_EIGENVALUES, atol=1e-12)


def test_eig_matches_bisection_oracle_live():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4, 5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h, scale = _as_unit_interval((g + g.conj().T) / 2.0)
        assert np.allclose(scale * Effect(h).eigenvalues,
                           scale * eigenvalues_by_bisection(h), atol=1e-10)


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h, scale = _as_unit_interval((g + g.conj().T) / 2.0)
        w, v = Effect(h).eig
        worst = max(worst, scale * np.linalg.norm((v * w) @ v.conj().T - h))
    assert worst <= RECONSTRUCTION_BOUND


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_entries_are_rejected():
    # NotHermitian on every non-finite entry, with no warning, whatever the
    # errstate: no arithmetic may touch the entries before they are tested.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state):
                for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
                    m = np.diag([value, 0.5])
                    for entry in (require_hermitian, Effect, psd_part, clamped_effect):
                        with pytest.raises(NotHermitian):
                            entry(m)


def test_order_and_unitary_checks_reject_non_finite_input():
    nan_matrix = np.full((3, 3), np.nan, dtype=complex)
    inf_entry = np.eye(3, dtype=complex)
    inf_entry[0, 1] = np.inf
    zero = np.zeros((3, 3))
    for bad in (nan_matrix, inf_entry):
        for check in (operator_norm, require_unitary,
                      lambda m: conjugate(random_effect(3, seed=1), m),
                      lambda m: loewner_leq(zero, m)):
            with pytest.raises(NotHermitian):
                check(bad)


@pytest.mark.parametrize("bad", [
    [["0.5", "0"], ["0", "0.5"]],
    np.array([["0.5", "0"], ["0", "0.5"]]),
    np.eye(2, dtype=bool),
    np.array([[0.5, 0.0], [0.0, 0.5]], dtype=object),
], ids=["string-list", "string-array", "bool-array", "object-array"])
def test_array_entry_points_refuse_what_is_not_numbers(bad):
    # Asked for complex, numpy reads "0.5" as a number, True as 1 and an
    # object array entry by entry.  One gate refuses all three, at every
    # entry point that takes a raw array.
    for entry in (Effect, require_hermitian, require_unitary, operator_norm, as_matrix,
                  trace, psd_part, lambda m: direct_sum([m]),
                  lambda m: loewner_leq(np.zeros((2, 2)), m),
                  lambda m: conjugate(0.5 * np.eye(2), m)):
        with pytest.raises(ValueError, match="must hold real or complex numbers"):
            entry(bad)


def test_array_entry_points_take_every_numeric_dtype():
    for dtype in (np.int64, np.uint8, np.float32, np.float64, np.complex64, np.complex128):
        e = Effect(np.eye(2, dtype=dtype))
        assert e.matrix.dtype == complex and np.array_equal(e.matrix, np.eye(2))
    assert np.array_equal(Effect([[1, 0], [0, 0.5]]).matrix, np.diag([1.0, 0.5]))


def test_require_hermitian_symmetrises():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 0.0]], dtype=complex)
    out = require_hermitian(m)
    assert np.array_equal(out, out.conj().T)


def test_effect_accepts_identity():
    e = Effect(np.eye(3, dtype=complex))
    assert e.dim == 3


def test_effect_rejects_eigenvalue_above_one():
    with pytest.raises(SpectrumOutOfRange) as err:
        Effect(np.diag([1.2, 0.5]).astype(complex))
    assert err.value.eigenvalue == pytest.approx(1.2)


def test_effect_rank_one_shift_spectrum():
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    h = 0.5 * (np.eye(3) + np.outer(v, v)).astype(complex)
    assert np.allclose(_eigenvalues(Effect(h)), [0.5, 0.5, 1.0], atol=1e-12)


def test_effect_clamps_tolerated_excursions():
    e = Effect(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
    w = _eigenvalues(e)
    assert w[0] >= 0.0 and w[-1] <= 1.0


def test_effect_rejects_excursions_beyond_tol():
    with pytest.raises(SpectrumOutOfRange):
        Effect(np.diag([0.5, -5.0 * EFFECT_SPECTRUM_TOL]).astype(complex))


def test_effect_matrix_is_read_only():
    e = random_effect(3, seed=0)
    with pytest.raises(ValueError):
        e.matrix[0, 0] = 9.0
    # As an array an Effect is its read-only matrix; a cast or a copy is new.
    assert np.asarray(e) is e.matrix
    for x in (np.asarray(e, dtype=np.complex64), np.array(e, copy=True)):
        assert x.flags.writeable and not np.shares_memory(x, e.matrix)
        assert np.allclose(x, e.matrix, atol=1e-7)
    assert np.asarray(e, dtype=np.complex64).dtype == np.complex64
    assert repr(Effect(np.diag([0.25, 0.5]))) == "Effect(dim=2, trace=0.75)"


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_effect_carries_its_eigendecomposition():
    m = random_effect(4, seed=7).matrix.copy()
    e = Effect(m)
    w, v = np.linalg.eigh(m)
    assert _same_bytes(e.eig.eigenvalues, w) and _same_bytes(e.eig.eigenvectors, v)
    assert not e.eig.eigenvalues.flags.writeable
    assert not e.eig.eigenvectors.flags.writeable
    assert e.eig is e.eig
    with pytest.raises(ValueError):
        e.eig.eigenvalues[0] = 0.5


def test_validated_effect_keeps_eigenvalues_but_no_eigenvectors(monkeypatch):
    # Validation decomposes once and keeps only the eigenvalues; the
    # eigenvectors are computed on first use of eig, once.
    m = random_effect(4, seed=10).matrix.copy()
    calls = []
    eigh, eigh_lo = np.linalg.eigh, hermitian._eigh_lo

    def counting_eigh(x):
        calls.append(x)
        return eigh_lo(x)

    monkeypatch.setattr(hermitian, "_eigh_lo", counting_eigh)
    e = Effect(m)
    assert len(calls) == 1
    w = e.eigenvalues
    assert len(calls) == 1 and e.eigenvalues is w
    assert not w.flags.writeable
    assert _same_bytes(w, eigh(m).eigenvalues)
    first = e.eig
    assert len(calls) == 2 and e.eig is first
    assert _same_bytes(first.eigenvalues, w)
    # A clamped or trusted effect computes both on first use, from eig.
    for lazy in (Effect(np.diag([1.0 + 5e-10, 0.5])), Effect.trusted(m)):
        calls.clear()
        assert _same_bytes(lazy.eigenvalues, lazy.eig.eigenvalues)
        assert len(calls) == 1


def test_clamped_effect_decomposes_its_stored_matrix():
    u = random_unitary(3, seed=8)
    m = (u * np.array([-5e-10, 0.5, 1.0 + 5e-10])) @ u.conj().T
    for e in (Effect((m + m.conj().T) / 2.0), clamped_effect(m)):
        w, v = np.linalg.eigh(e.matrix)
        assert _same_bytes(e.eig.eigenvalues, w) and _same_bytes(e.eig.eigenvectors, v)
        assert not e.eig.eigenvectors.flags.writeable


def test_trusted_effect_decomposes_once_on_first_use(monkeypatch):
    m = random_effect(3, seed=9).matrix
    calls = []
    eigh, eigh_lo = np.linalg.eigh, hermitian._eigh_lo

    def counting_eigh(x):
        calls.append(x)
        return eigh_lo(x)

    monkeypatch.setattr(hermitian, "_eigh_lo", counting_eigh)
    e = Effect.trusted(m)
    assert calls == []
    first = e.eig
    assert e.eig is first and len(calls) == 1
    w, v = eigh(m)
    assert _same_bytes(first.eigenvalues, w) and _same_bytes(first.eigenvectors, v)


def test_clamped_effect_never_raises():
    e = clamped_effect(np.diag([1.7, -0.4]).astype(complex))
    assert np.allclose(_eigenvalues(e), [0.0, 1.0], atol=1e-14)


def test_orthocomplement_endpoints_and_fixed_point():
    assert np.allclose(as_matrix(orthocomplement(Effect(np.zeros((2, 2))))), np.eye(2))
    half = Effect(0.5 * np.eye(2, dtype=complex))
    assert np.allclose(as_matrix(orthocomplement(half)), 0.5 * np.eye(2))
    d = Effect(np.diag([0.3, 0.9]).astype(complex))
    assert np.allclose(np.diag(as_matrix(orthocomplement(d))).real, [0.7, 0.1])


def test_orthocomplement_is_involution():
    e = random_effect(4, seed=11)
    back = orthocomplement(orthocomplement(e))
    assert np.allclose(as_matrix(back), as_matrix(e), atol=1e-15)


def test_loewner_zero_below_identity():
    assert loewner_leq(np.zeros((2, 2)), np.eye(2))


def test_loewner_diagonal_counterexample():
    assert not loewner_leq(np.diag([0.5, 0.5]), np.diag([0.4, 0.9]))


def test_loewner_psd_gap():
    rng = np.random.default_rng(3)
    a = random_effect(4, seed=rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert loewner_leq(a, as_matrix(a) + 0.01 * (g @ g.conj().T))


def test_loewner_dimension_mismatch():
    with pytest.raises(ValueError):
        loewner_leq(np.eye(2), np.eye(3))


def test_psd_part_fixes_psd_input():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = g @ g.conj().T
    assert np.allclose(psd_part(p), p, atol=1e-12)


def test_psd_part_clamps_negative_eigenvalue():
    out = psd_part(np.diag([-0.5, 0.5]).astype(complex))
    assert np.allclose(out, np.diag([0.0, 0.5]), atol=1e-15)


def test_psd_part_frozen_rank_deficient_case():
    out = psd_part(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
    assert np.allclose(out, 1.5 * np.ones((2, 2)), atol=1e-14)


def test_psd_part_idempotent():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (g + g.conj().T) / 2.0
    once = psd_part(h)
    assert np.allclose(psd_part(once), once, atol=1e-12)


def test_psd_part_is_frobenius_nearest():
    """No random PSD candidate may beat the projection's distance."""
    rng = np.random.default_rng(17)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (g + g.conj().T) / 2.0
    best = np.linalg.norm(psd_part(h) - h)
    for _ in range(10_000):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cand = c @ c.conj().T * rng.uniform(0.0, 2.0)
        assert np.linalg.norm(cand - h) >= best - 1e-12


def test_psd_kernel_matches_eigh_reference():
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        for _ in range(20):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (g + g.conj().T) / 2.0
            w, v = np.linalg.eigh(h)
            # PSD input is returned as is; two of the 2x2 draws are PSD.
            reference = h if w[0] >= 0.0 else (v * np.clip(w, 0.0, None)) @ v.conj().T
            assert hermitian._psd_kernel(h).tobytes() == reference.tobytes()
        psd = g @ g.conj().T + n * np.eye(n)
        assert hermitian._psd_kernel(psd) is psd


def test_psd_part_raises_when_the_eigensolver_fails(monkeypatch):
    # Fed NaN, the LAPACK gufunc fails as on non-convergence.
    real = hermitian._eigh_lo
    monkeypatch.setattr(hermitian, "_eigh_lo",
                        lambda m: real(np.full_like(m, np.nan)))
    with pytest.raises(np.linalg.LinAlgError):
        psd_part(np.diag([-1.0, 0.5, 0.5]))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_effect_raises_when_the_eigensolver_fails(monkeypatch):
    # Validation and Effect.eig call the gufunc outside _lapack_checked; fed
    # NaN, it fails as on non-convergence, and neither may keep NaN spectra.
    # The gufunc runs under the caller's errstate: LinAlgError by default,
    # FloatingPointError under invalid="raise".
    m = random_effect(3, seed=43).matrix.copy()
    trusted = Effect.trusted(m)
    real = hermitian._eigh_lo
    monkeypatch.setattr(hermitian, "_eigh_lo", lambda x: real(np.full_like(x, np.nan)))
    for invalid, error in (("warn", np.linalg.LinAlgError), ("ignore", np.linalg.LinAlgError),
                           ("raise", FloatingPointError)):
        with np.errstate(invalid=invalid):
            with pytest.raises(error):
                Effect(m)
            with pytest.raises(error):
                trusted.eig
            with pytest.raises(error):
                trusted.eigenvalues


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = g @ g.conj().T
    r = sqrt_psd(p)
    assert np.allclose(r @ r, p, atol=1e-10)


def test_trace_and_operator_norm():
    h = np.diag([-2.0, 1.0]).astype(complex)
    assert trace(h) == pytest.approx(-1.0)
    assert operator_norm(h) == pytest.approx(2.0)


def test_direct_sum_assembly():
    out = direct_sum([np.array([[1.0]]), np.array([[0.0]])])
    assert np.allclose(out, np.diag([1.0, 0.0]))
    a = random_effect(2, seed=1)
    b = random_effect(2, seed=2)
    w = _eigenvalues(direct_sum([as_matrix(a), as_matrix(b)]))
    expected = np.sort(np.concatenate([_eigenvalues(a), _eigenvalues(b)]))
    assert np.allclose(w, expected, atol=1e-12)


def test_direct_sum_single_and_empty():
    a = as_matrix(random_effect(3, seed=4))
    assert np.array_equal(direct_sum([a]), a)
    with pytest.raises(ValueError):
        direct_sum([])


@pytest.mark.parametrize("bad, message", [
    (np.ones((2, 1)), r"expected a square matrix, got shape \(2, 1\)"),
    (np.ones(2), r"expected a square matrix, got shape \(2,\)"),
    (np.zeros((0, 0)), "empty matrix"),
], ids=["column", "vector", "empty"])
def test_blocks_and_effects_must_be_nonempty_square_matrices(bad, message):
    # direct_sum used to broadcast a column or a vector into a square block.
    with pytest.raises(ValueError, match=message):
        Effect(bad)
    with pytest.raises(ValueError, match=message):
        direct_sum([np.eye(2), bad])


def test_conjugate_identity_and_spectrum():
    a = random_effect(3, seed=21)
    same = conjugate(a, np.eye(3, dtype=complex))
    assert np.allclose(as_matrix(same), as_matrix(a), atol=1e-15)
    u = random_unitary(3, np.random.default_rng(22))
    assert np.allclose(_eigenvalues(conjugate(a, u)), _eigenvalues(a), atol=1e-10)


def test_conjugate_transpose_is_entrywise_conjugate():
    a = random_effect(3, seed=23)
    out = conjugate(a, np.eye(3, dtype=complex), transpose=True)
    assert np.allclose(as_matrix(out), as_matrix(a).conj(), atol=1e-15)


def test_conjugate_rejects_nonunitary():
    with pytest.raises(ValueError):
        conjugate(random_effect(2, seed=1), np.diag([2.0, 1.0]).astype(complex))


def test_random_unitary_contract():
    u1 = random_unitary(1, np.random.default_rng(31))
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    ua = random_unitary(4, np.random.default_rng(32))
    ub = random_unitary(4, np.random.default_rng(32))
    assert np.array_equal(ua, ub)
    assert np.linalg.norm(ua.conj().T @ ua - np.eye(4)) <= 1e-10
    require_unitary(ua)


def test_random_unitary_is_the_qr_wrapper_formula_bit_for_bit():
    for d in range(1, 9):
        for s in range(200):
            rng, ref_rng = np.random.default_rng(s), np.random.default_rng(s)
            z = ref_rng.standard_normal((d, d)) + 1j * ref_rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            assert random_unitary(d, rng).tobytes() == (q * (diag / np.abs(diag))).tobytes()
            assert rng.random() == ref_rng.random()


def test_private_lapack_gufuncs_match_their_wrappers():
    # The package calls these private numpy gufuncs directly; a numpy whose
    # wrappers stop calling them the same way fails here.
    rng = np.random.default_rng(37)
    for n in range(2, 9):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        w, v = hermitian._eigh_lo(h)
        w_ref, v_ref = np.linalg.eigh(h)
        assert (w.tobytes(), v.tobytes()) == (w_ref.tobytes(), v_ref.tobytes())
        assert hermitian._eigvalsh_lo(h).tobytes() == np.linalg.eigvalsh(h).tobytes()
        factored = g.copy()
        tau = hermitian._qr_r_raw(factored, signature="D->D")
        q = hermitian._qr_reduced(factored, tau, signature="DD->D")
        q_ref, r_ref = np.linalg.qr(g)
        assert q.tobytes() == q_ref.tobytes()
        assert np.triu(factored).tobytes() == r_ref.tobytes()
    for size in (2, 5, 10, 17, 26, 37, 50, 65):  # n^2 + 1 for n = 1..8, and others
        m = rng.standard_normal((size, size))
        rhs = rng.standard_normal(size)
        x = hermitian._solve1(m, rhs, signature="dd->d")
        assert x.tobytes() == np.linalg.solve(m, rhs).tobytes()


def _serial_random_effect(dim, stratum, rng):
    """random_effect's matrix as one draw at a time computes it: the reference."""
    p, q = stratum or (0, 0)
    lo, hi = hermitian.INTERIOR_MARGIN, 1.0 - hermitian.INTERIOR_MARGIN
    vals = np.concatenate([np.ones(p), lo + (hi - lo) * rng.random(dim - p - q), np.zeros(q)])
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qf, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    u = qf * (diag / np.abs(diag))
    m = (u * vals) @ u.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("dim", range(1, 9))
def test_stacked_draws_are_serial_draws_bit_for_bit(dim):
    # k draws taken as one stack have the bytes of k single draws, and of the
    # serial reference, and leave the generator in the same state.
    strata = [None, (0, 0), (1, 0), (0, 1), (dim, 0), (dim // 2, (dim - 1) // 2)]
    for s in range(50):
        k = 1 + s % 4
        for stratum in strata:
            stacked, single, ref = (np.random.default_rng(s) for _ in range(3))
            stack = hermitian._random_effects(dim, k, stratum, stacked)
            assert stack.shape == (k, dim, dim)
            assert stack.tobytes() == b"".join(
                random_effect(dim, stratum, seed=single).matrix.tobytes() for _ in range(k))
            assert stack.tobytes() == b"".join(
                _serial_random_effect(dim, stratum, ref).tobytes() for _ in range(k))
            assert stacked.bit_generator.state == single.bit_generator.state
            assert stacked.bit_generator.state == ref.bit_generator.state
        stacked, single = np.random.default_rng(s), np.random.default_rng(s)
        unitaries, uniform = hermitian._haar_stack(dim, k, stacked)
        assert uniform is None
        assert unitaries.tobytes() == b"".join(
            random_unitary(dim, single).tobytes() for _ in range(k))
        assert stacked.bit_generator.state == single.bit_generator.state


def test_random_effect_strata_pinning():
    full = random_effect(3, stratum=(3, 0), seed=1)
    assert np.allclose(as_matrix(full), np.eye(3), atol=1e-12)
    proj = random_effect(2, stratum=(1, 1), seed=2)
    w = _eigenvalues(proj)
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_random_effect_interior_margin():
    e = random_effect(5, stratum=(1, 1), seed=3)
    w = _eigenvalues(e)
    interior = w[(w > 1e-9) & (w < 1.0 - 1e-9)]
    assert np.all(interior >= 1e-3 - 1e-12)
    assert np.all(interior <= 1.0 - 1e-3 + 1e-12)


def test_random_effect_determinism_and_bounds():
    assert np.array_equal(as_matrix(random_effect(4, seed=9)),
                          as_matrix(random_effect(4, seed=9)))
    with pytest.raises(ValueError):
        random_effect(3, stratum=(2, 2), seed=0)


def test_random_projection_rank():
    p = random_projection(4, 2, seed=6)
    assert np.allclose(_eigenvalues(p), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


@seed(101)
@settings(deadline=None, max_examples=60)
@given(entries=arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0)))
def test_psd_part_properties(entries):
    h = ((entries + entries.T) / 2.0).astype(complex)
    part = psd_part(h)
    assert np.linalg.eigvalsh(part)[0] >= -1e-12
    assert np.allclose(psd_part(part), part, atol=1e-11)
    # the complementary part is PSD too: h = part - (part - h), both pieces psd
    assert np.linalg.eigvalsh(part - h)[0] >= -1e-12


@seed(103)
@settings(deadline=None, max_examples=60)
@given(diag=arrays(np.float64, (4,), elements=st.floats(0.0, 1.0)))
def test_loewner_antisymmetry_on_commuting_pairs(diag):
    a = np.diag(diag).astype(complex)
    b = as_matrix(random_effect(4, seed=77))
    both = loewner_leq(a, b) and loewner_leq(b, a)
    if both:
        assert np.linalg.norm(a - b) <= 4 * 1e-9

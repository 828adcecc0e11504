import numpy as np
import pytest

from effectkit.hermitian import as_matrix, orthocomplement, random_effect, random_projection
from effectkit.strata import (
    canonical_form,
    classify,
    freedom_dimension,
    is_projection,
    is_scalar,
)


def corner_pattern_parameter_count(n, p, q):
    """Count free real parameters of a Hermitian matrix whose top-right
    p x q corner (and its mirror) is forced to zero: one parameter per
    diagonal entry, two per remaining upper-triangle entry."""
    count = 0
    for i in range(n):
        for j in range(i, n):
            if i < p and j >= n - q:
                continue
            count += 1 if i == j else 2
    return count


def test_classify_identity():
    assert classify(np.eye(3, dtype=complex)) == (3, 0)


def test_classify_rank_one_projection():
    p = random_projection(4, 1, seed=0)
    assert classify(p) == (1, 3)


def test_classify_mixed_diagonal():
    assert classify(np.diag([1.0, 0.5, 0.0]).astype(complex)) == (1, 1)


def test_classify_refuses_a_tol_that_joins_the_endpoints():
    # From tol = 0.5 the windows at 0 and 1 overlap: 0.5 I at dim 2 was
    # classified (2, 2), which fits no dimension.
    half = 0.5 * np.eye(2, dtype=complex)
    for tol in (0.5, 0.75, 1e300):
        with pytest.raises(ValueError, match="tol must be below 0.5"):
            classify(half, tol)
    assert classify(half, 0.49) == (0, 0)


def test_classify_complement_swaps_label():
    for s in range(20):
        e = random_effect(5, stratum=(2, 1), seed=s)
        assert classify(e) == (2, 1)
        assert classify(orthocomplement(e)) == (1, 2)


def test_classify_round_trips_generated_strata():
    rng = np.random.default_rng(5)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        p = int(rng.integers(0, dim + 1))
        q = int(rng.integers(0, dim - p + 1))
        e = random_effect(dim, stratum=(p, q), seed=rng)
        assert classify(e) == (p, q)


def test_canonical_form_projection():
    p = random_projection(4, 2, seed=3)
    v, d = canonical_form(p)
    assert np.allclose(np.diag(as_matrix(d)).real, [1.0, 1.0, 0.0, 0.0])
    assert np.allclose(v @ as_matrix(d) @ v.conj().T, as_matrix(p), atol=1e-9)


def test_canonical_form_reorders_diagonal():
    v, d = canonical_form(np.diag([0.3, 1.0, 0.0]).astype(complex))
    assert np.allclose(np.diag(as_matrix(d)).real, [1.0, 0.3, 0.0])
    # a permutation has a single unit entry per row
    assert np.allclose(np.sort(np.abs(v), axis=1)[:, :-1], 0.0, atol=1e-12)


def test_canonical_form_reconstructs():
    for s in range(50):
        e = random_effect(4, stratum=(1, 1), seed=s)
        v, d = canonical_form(e)
        assert np.linalg.norm(v @ as_matrix(d) @ v.conj().T - as_matrix(e)) <= 1e-9
        dd = np.diag(as_matrix(d)).real
        interior = dd[(dd < 1.0 - 1e-7) & (dd > 1e-7)]
        assert np.all(np.diff(interior) <= 1e-12)


def test_freedom_dimension_open_stratum():
    for n in range(2, 9):
        assert freedom_dimension(n, 0, 0) == n * n


def test_freedom_dimension_frozen_values():
    assert freedom_dimension(4, 1, 1) == 14
    assert freedom_dimension(5, 2, 2) == 17


def test_freedom_dimension_matches_pattern_count():
    for n in range(2, 9):
        for p in range(n + 1):
            for q in range(n - p + 1):
                assert freedom_dimension(n, p, q) == corner_pattern_parameter_count(n, p, q)


def test_freedom_dimension_symmetry_and_errors():
    assert freedom_dimension(6, 2, 3) == freedom_dimension(6, 3, 2)
    with pytest.raises(ValueError):
        freedom_dimension(3, 2, 2)


def test_is_scalar():
    assert is_scalar(0.5 * np.eye(3, dtype=complex))[0]
    assert not is_scalar(random_projection(3, 1, seed=1))[0]
    near = np.diag([0.5, 0.500000001]).astype(complex)
    flag, value = is_scalar(near, 1e-7)
    assert flag and value == pytest.approx(0.5, abs=1e-8)


def test_is_projection():
    assert is_projection(random_projection(3, 1, seed=2))
    assert not is_projection(np.diag([0.5, 1.0]).astype(complex))
    assert is_projection(np.eye(2, dtype=complex))

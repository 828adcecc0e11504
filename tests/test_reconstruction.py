import hashlib

import numpy as np
import pytest

from effectkit import hermitian, preservers
from effectkit.hermitian import (
    Effect,
    as_matrix,
    clamped_effect,
    random_effect,
    random_unitary,
)
from effectkit.preservers import (
    StandardAutomorphismSpec,
    TraceThresholdSpec,
    apply_standard,
    preserver_handle,
    random_ges_spec,
    random_standard_spec,
)
from effectkit.reconstruction import (
    InconsistentMap,
    NonOrthogonalImages,
    NonProjectionImage,
    PhaseFitFailure,
    detect_perp,
    phase_aligned_distance,
    reconstruct,
    verify_reconstruction,
)


def identity_map(a):
    return a


def flip_map(a):
    return Effect(np.eye(a.dim) - as_matrix(a))


def test_detect_perp_identity_and_flip():
    assert detect_perp(identity_map, 3) is False
    assert detect_perp(flip_map, 3) is True


def test_detect_perp_conjugated_flip():
    u = random_unitary(3, np.random.default_rng(1))
    handle = preserver_handle(StandardAutomorphismSpec(u, perp=True))
    assert detect_perp(handle, 3) is True


def test_detect_perp_inconsistent_map():
    with pytest.raises(InconsistentMap):
        detect_perp(lambda a: Effect(0.5 * np.eye(a.dim, dtype=complex)), 3)


def test_reconstruct_identity_map():
    res = reconstruct(identity_map, 3)
    assert res.antiunitary is False
    assert res.perp is False
    assert res.residual <= 1e-10
    assert phase_aligned_distance(res.unitary, np.eye(3, dtype=complex)) <= 1e-10


def test_reconstruct_round_trip_all_flags():
    for dim in (2, 4, 6):
        for transpose in (False, True):
            for perp in (False, True):
                spec = random_standard_spec(dim, seed=dim * 7 + 2 * transpose + perp,
                                            transpose=transpose, perp=perp)
                res = reconstruct(preserver_handle(spec), dim)
                assert res.antiunitary == transpose
                assert res.perp == perp
                assert phase_aligned_distance(res.unitary, spec.unitary) <= 1e-8
                assert res.residual <= 1e-8


def test_reconstruct_gauge_is_deterministic():
    for s in range(5):
        spec = random_standard_spec(4, seed=30 + s)
        res = reconstruct(preserver_handle(spec), 4)
        col = res.unitary[:, 0]
        lead = col[np.abs(col) > 1e-8][0]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0.0
        again = reconstruct(preserver_handle(spec), 4)
        assert np.array_equal(res.unitary, again.unitary)


def test_verify_reconstruction_exact_map():
    spec = random_standard_spec(4, seed=40, transpose=True)
    res = reconstruct(preserver_handle(spec), 4)
    assert verify_reconstruction(preserver_handle(spec), res, trials=200, seed=41) <= 1e-7


def test_verify_reconstruction_flags_trace_threshold():
    """The trace-threshold map fixes every probe projection, so the fit comes
    back as the identity; only random-effect verification exposes it."""
    spec = TraceThresholdSpec(dim=3, alpha=1.0)
    handle = preserver_handle(spec)
    res = reconstruct(handle, 3)
    assert res.residual <= 1e-10
    assert verify_reconstruction(handle, res, trials=50, seed=42) > 0.01


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_reconstruction_needs_a_trial(trials):
    # With no trial the gap would read 0 and pass the trace-threshold
    # map's identity fit, whose gap at 3 trials is well above 0.1.
    handle = preserver_handle(TraceThresholdSpec(3, 1.0))
    fit = reconstruct(handle, 3)
    assert verify_reconstruction(handle, fit, 3, seed=1) > 0.1
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_reconstruction(handle, fit, trials, seed=1)


# The number of effects reconstruct hands the map, and the sha256 of their
# bytes in order: a literal, so that any change to what the map sees, or
# when, fails here.
PROBE_SEQUENCES = {
    2: (6, "856eaf0a7133d3370a3bc188bd1a2c45fe6ee57af4ddf8f38ac632b24dddf883"),
    3: (8, "d86c50f31a9f07391bad4af3d50e7123569e39a712146b55a6f449c332441c76"),
    4: (10, "71ee587178baef5c42c027abc0a532e1c975e82fb38282d45415594c5b94bef1"),
    5: (12, "5667239129ce0fd15221b98a413ba86c62cd1497d5006101d308e452b6e821f9"),
    6: (14, "745b27f174a8e305679dcc9d6f02a91f81732dd1b0125d33c9534a4e86299d04"),
}


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_reconstruct_queries_each_probe_once(dim):
    # 0 and I, dim basis projections, dim - 1 real superpositions
    # (e_1 + e_j)/sqrt 2 and (e_1 + i e_2)/sqrt 2, in that order: 2 dim + 2
    # calls, the residual reusing the kept images.
    for flags in range(4):
        spec = random_standard_spec(dim, seed=70 + flags, transpose=bool(flags & 1),
                                    perp=bool(flags & 2))
        handle = preserver_handle(spec)
        seen = []

        def recorded(e):
            seen.append(e.matrix.tobytes())
            return handle(e)

        fit = reconstruct(recorded, dim)
        assert len(seen) == 2 * dim + 2
        assert (len(seen), hashlib.sha256(b"".join(seen)).hexdigest()) == PROBE_SEQUENCES[dim]
        assert fit.perp == bool(flags & 2) and fit.residual <= 1e-8


def test_verify_reconstruction_identity_is_zero():
    res = reconstruct(identity_map, 2)
    assert verify_reconstruction(identity_map, res, trials=20, seed=43) <= 1e-14


def shrink(a):
    return clamped_effect(0.9 * as_matrix(a) + 0.05 / a.dim
                          * np.trace(as_matrix(a)).real * np.eye(a.dim))


def collapse(a):
    """Fixes 0 and I, sends every other effect to e1·e1*."""
    m = as_matrix(a)
    if np.allclose(m, 0.0) or np.allclose(m, np.eye(3)):
        return a
    return Effect(np.diag([1.0, 0.0, 0.0]).astype(complex))


def tamper(a):
    """Fixes every effect but the (e1+e2) superposition probe, sent to e3·e3*."""
    m = as_matrix(a)
    if abs(m[0, 1] - 0.5) < 1e-12 and abs(m[0, 0] - 0.5) < 1e-12:
        return Effect(np.diag([0.0, 0.0, 1.0]).astype(complex))
    return a


def test_non_projection_image():
    with pytest.raises(NonProjectionImage):
        reconstruct(shrink, 3)


def test_non_orthogonal_images():
    with pytest.raises(NonOrthogonalImages):
        reconstruct(collapse, 3)


def test_phase_fit_failure_on_rerouted_superposition():
    """Basis probes pass through, but the (e1+e2) superposition probe lands
    on e3·e3*, so the cross element that should fix the relative phase
    vanishes."""
    with pytest.raises(PhaseFitFailure):
        reconstruct(tamper, 3)


# Failing maps: the exception and message reconstruct raises, and how many
# queries the map has seen by then.  A map that fails a probe check has
# seen all 2 dim + 2 queries, since every probe is queried before any
# image is checked; one that fails in detect_perp has seen 1 or 2.
@pytest.mark.parametrize("make, dim, error, message, queries", [
    (lambda: shrink, 3, NonProjectionImage,
     "probe image spectrum is 0.0833 away from {0, 1}", 8),
    (lambda: collapse, 3, NonOrthogonalImages,
     "Gram matrix of column images deviates from I by 1", 8),
    (lambda: tamper, 3, PhaseFitFailure, "superposition probe 1 gave cross element 0", 8),
    (lambda: preserver_handle(random_ges_spec(2, seed=0)), 2, InconsistentMap,
     "map(0) is 0.867 from 0 and 0.547 from I", 1),
    (lambda: preserver_handle(random_ges_spec(3, seed=1)), 3, InconsistentMap,
     "map(I) is 0.77 from 0 and 0.962 from I", 2),
    (lambda: preserver_handle(random_ges_spec(5, seed=3)), 5, InconsistentMap,
     "map(0) is 0.258 from 0 and 1.98 from I", 1),
], ids=["shrink", "collapse", "tamper", "ges0", "ges1", "ges3"])
def test_failing_maps_raise_as_before(make, dim, error, message, queries):
    handle, calls = make(), []

    def counted(e):
        calls.append(1)
        return handle(e)

    with pytest.raises(error) as info:
        reconstruct(counted, dim)
    assert type(info.value) is error and str(info.value) == message
    assert len(calls) == queries


@pytest.mark.parametrize("trials", [1, 2, 3, 7, 20])
def test_verify_reconstruction_draws_as_serial_random_effects(trials):
    # The handle sees R, R/n, I - R/n from trials random_effect draws in a
    # row, the gap is the per-trial loop's, and a Generator seed ends where
    # those draws leave it.
    for dim in (2, 3, 5):
        spec = random_standard_spec(dim, seed=80 + dim, transpose=True, perp=dim % 2 == 1)
        handle = preserver_handle(spec)
        fit = reconstruct(handle, dim)
        seen = []

        def recorded(e):
            seen.append(e.matrix.tobytes())
            return handle(e)

        rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
        gap = verify_reconstruction(recorded, fit, trials, seed=rng)
        want, worst = [], 0.0
        for i in range(trials):
            a = random_effect(dim, seed=ref)
            if i % 3:
                low = a.matrix / dim
                a = Effect.trusted(low if i % 3 == 1 else np.eye(dim) - low)
            want.append(a.matrix.tobytes())
            worst = max(worst, float(np.linalg.norm(
                handle(a).matrix - apply_standard(fit.spec, a).matrix)))
        assert seen == want
        assert gap.hex() == worst.hex()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_phase_aligned_distance_quotient():
    u = random_unitary(3, np.random.default_rng(44))
    rotated = np.exp(1j * 0.73) * u
    assert phase_aligned_distance(u, rotated) <= 1e-14
    other = random_unitary(3, np.random.default_rng(45))
    assert phase_aligned_distance(u, other) > 0.1


def test_result_spec_property():
    spec = random_standard_spec(3, seed=46, transpose=True, perp=True)
    res = reconstruct(preserver_handle(spec), 3)
    rebuilt = preserver_handle(res.spec)
    a = random_effect(3, seed=47)
    assert np.linalg.norm(as_matrix(rebuilt(a))
                          - as_matrix(preserver_handle(spec)(a))) <= 1e-10


def test_map_specs_check_their_unitary_once(monkeypatch):
    # Each spec validates its unitary when it is built; evaluating the map
    # does not validate it again.
    calls = []
    real = hermitian.require_unitary

    def counting(u, *args, **kwargs):
        calls.append(1)
        return real(u, *args, **kwargs)

    monkeypatch.setattr(hermitian, "require_unitary", counting)
    monkeypatch.setattr(preservers, "require_unitary", counting)
    handle = preserver_handle(random_standard_spec(4, seed=60, transpose=True, perp=True))
    fit = reconstruct(handle, 4)
    assert verify_reconstruction(handle, fit, 20, seed=61) <= 1e-10
    # the map's spec, the fitted spec and the spec verify rebuilds from the fit
    assert len(calls) <= 3
    with pytest.raises(ValueError, match="not unitary"):
        StandardAutomorphismSpec(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="not unitary"):
        hermitian.conjugate(random_effect(2, seed=62), np.diag([2.0, 1.0]))

import numpy as np
import pytest

from effectkit import hermitian
from effectkit.coexistence import Verdict, decide, decide_blockwise, sample_coexistent
from effectkit.hermitian import (
    Effect,
    as_matrix,
    conjugate,
    orthocomplement,
    random_effect,
    random_projection,
    random_unitary,
    trace,
)
from effectkit.matrixio import FileFormatError, dumps_document
from effectkit.preservers import (
    MAP_KINDS,
    BlockCounterexampleSpec,
    GesBijectiveSpec,
    StandardAutomorphismSpec,
    TraceThresholdSpec,
    apply_block_counterexample,
    apply_ges_bijective,
    apply_standard,
    apply_trace_threshold,
    block_components,
    document_preserver_spec,
    preserver_handle,
    preserver_spec_document,
    random_block_spec,
    random_ges_spec,
    random_standard_spec,
    trace_threshold_inverse,
)


def test_standard_identity_map():
    spec = StandardAutomorphismSpec(np.eye(3, dtype=complex))
    a = random_effect(3, seed=0)
    assert np.allclose(as_matrix(apply_standard(spec, a)), as_matrix(a), atol=1e-15)


def test_standard_perp_only():
    spec = StandardAutomorphismSpec(np.eye(3, dtype=complex), perp=True)
    a = random_effect(3, seed=1)
    assert np.allclose(as_matrix(apply_standard(spec, a)),
                       np.eye(3) - as_matrix(a), atol=1e-15)


def test_standard_perp_twice_is_identity():
    spec = StandardAutomorphismSpec(np.eye(3, dtype=complex), perp=True)
    a = random_effect(3, seed=2)
    twice = apply_standard(spec, apply_standard(spec, a))
    assert np.allclose(as_matrix(twice), as_matrix(a), atol=1e-14)


def test_standard_preserves_verdicts():
    spec = random_standard_spec(3, seed=3)
    handle = preserver_handle(spec)
    for s in range(10):
        a = random_effect(3, seed=100 + s)
        b = random_effect(3, seed=200 + s)
        base = decide(a, b)
        moved = decide(handle(a), handle(b))
        if base.definite and moved.definite:
            assert base.verdict == moved.verdict


def test_standard_spec_rejects_nonunitary():
    with pytest.raises(ValueError):
        StandardAutomorphismSpec(np.diag([2.0, 1.0]).astype(complex))
    # The flags must be bools: the string "no" is truthy and would transpose.
    for flags in (("no", False), (False, 1), (None, False)):
        with pytest.raises(ValueError, match="must be a bool"):
            StandardAutomorphismSpec(np.eye(2), *flags)
    spec = StandardAutomorphismSpec(np.eye(2), np.bool_(True), np.False_)
    assert (spec.transpose, spec.perp) == (True, False) and type(spec.transpose) is bool


def test_trace_threshold_branch_agreement_at_one():
    spec = TraceThresholdSpec(dim=3, alpha=2.0)
    a = Effect(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert np.allclose(as_matrix(apply_trace_threshold(spec, a)),
                       as_matrix(a), atol=1e-12)


def test_trace_threshold_branch_agreement_at_n_minus_one():
    spec = TraceThresholdSpec(dim=3, alpha=2.0)
    a = Effect(np.diag([1.0, 0.5, 0.5]).astype(complex))
    assert np.allclose(as_matrix(apply_trace_threshold(spec, a)),
                       as_matrix(a), atol=1e-12)


def test_trace_threshold_endpoints():
    spec = TraceThresholdSpec(dim=3, alpha=1.0)
    assert np.allclose(as_matrix(apply_trace_threshold(spec, Effect(np.zeros((3, 3))))), 0.0)
    assert np.allclose(as_matrix(apply_trace_threshold(spec, Effect(np.eye(3)))),
                       np.eye(3), atol=1e-15)


def test_trace_threshold_frozen_low_branch():
    spec = TraceThresholdSpec(dim=3, alpha=1.0)
    a = Effect(np.diag([0.3, 0.2, 0.0]).astype(complex))
    out = apply_trace_threshold(spec, a)
    assert np.allclose(np.diag(as_matrix(out)).real, [0.15, 0.10, 0.0], atol=1e-14)


def test_trace_threshold_perp_compatibility():
    for alpha in (1.0, 2.0):
        spec = TraceThresholdSpec(dim=4, alpha=alpha)
        for s in range(10):
            a = random_effect(4, seed=300 + s)
            lhs = as_matrix(apply_trace_threshold(spec, orthocomplement(a)))
            rhs = np.eye(4) - as_matrix(apply_trace_threshold(spec, a))
            assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_trace_threshold_order_preserving():
    spec = TraceThresholdSpec(dim=3, alpha=2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = as_matrix(random_effect(3, seed=rng))
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gap = 0.05 * (g @ g.conj().T) / 3.0
        b = np.clip(np.linalg.eigvalsh(a + gap), None, 1.0)
        w, v = np.linalg.eigh(a + gap)
        b = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
        if not np.all(np.linalg.eigvalsh(b - a) >= -1e-12):
            continue
        fa = as_matrix(apply_trace_threshold(spec, Effect(a)))
        fb = as_matrix(apply_trace_threshold(spec, Effect(b)))
        assert np.linalg.eigvalsh(fb - fa)[0] >= -1e-9


def test_trace_threshold_one_way_coexistence():
    spec = TraceThresholdSpec(dim=3, alpha=2.0)
    handle = preserver_handle(spec)
    for s in range(5):
        a = random_effect(3, seed=400 + s)
        for b in sample_coexistent(a, 2, seed=500 + s):
            assert decide(handle(a), handle(b)).verdict != Verdict.NOT_COEXISTENT


def test_trace_threshold_inverse_frozen():
    spec = TraceThresholdSpec(dim=3, alpha=1.0)
    b = Effect(np.diag([0.15, 0.10, 0.0]).astype(complex))
    a = trace_threshold_inverse(spec, b)
    assert np.allclose(as_matrix(a), 2.0 * as_matrix(b), atol=1e-11)


def test_trace_threshold_inverse_endpoint_and_middle():
    spec = TraceThresholdSpec(dim=3, alpha=2.0)
    assert np.allclose(as_matrix(trace_threshold_inverse(spec, Effect(np.zeros((3, 3))))), 0.0)
    mid = Effect(np.diag([0.9, 0.6, 0.5]).astype(complex))
    assert np.allclose(as_matrix(trace_threshold_inverse(spec, mid)),
                       as_matrix(mid), atol=1e-15)


def test_trace_threshold_inverse_round_trip():
    # R, R/4 (trace at most 1) and I - R/4 (trace at least 3) take the
    # middle, low- and high-trace branches; the closed-form inverse round-
    # trips to rounding, so a t solved only to 1e-12 would fail.
    for alpha in (0.0, 0.5, 1.0, 2.0, 7.0):
        spec = TraceThresholdSpec(dim=4, alpha=alpha)
        for s in range(10):
            r = as_matrix(random_effect(4, seed=600 + s))
            for b in (Effect(r), Effect(r / 4.0), Effect(np.eye(4) - r / 4.0)):
                a = trace_threshold_inverse(spec, b)
                back = apply_trace_threshold(spec, a)
                assert np.linalg.norm(as_matrix(back) - as_matrix(b)) <= 1e-13


def test_trace_threshold_spec_validation():
    for dim, alpha in ((1, 1.0), (3, -1.0), (2.5, 1.0), (True, 1.0), (3, "2"), (3, True),
                       (3, 1j), (3, float("nan"))):
        with pytest.raises(ValueError):
            TraceThresholdSpec(dim, alpha)
    # Integers and numpy scalars pass, kept as int and float.
    for dim, alpha in ((3, 2), (np.int64(3), np.float64(2.0)), (3, np.int32(2))):
        spec = TraceThresholdSpec(dim, alpha)
        assert spec == TraceThresholdSpec(3, 2.0)
        assert type(spec.dim) is int and type(spec.alpha) is float


def test_block_counterexample_zero_maps_to_zero():
    spec = random_block_spec(2, seed=7)
    out = apply_block_counterexample(spec, Effect(np.zeros((2, 2))))
    assert out.dim == 8
    assert np.allclose(as_matrix(out), 0.0)


def test_block_counterexample_identity_frozen():
    x = np.array([1.0, 0.0], dtype=complex)
    spec = BlockCounterexampleSpec(
        contraction=np.eye(2, dtype=complex),
        vectors=(x, x, x, x),
        diagonals=(np.ones(2),) * 4,
    )
    out = apply_block_counterexample(spec, Effect(np.eye(2)))
    expected = np.diag([1, 1, 1, 1, 0.5, 0.5, 0.9375, 0.9375])
    assert np.allclose(as_matrix(out), expected, atol=1e-14)


def test_block_counterexample_components():
    spec = random_block_spec(2, seed=8)
    a = random_effect(2, seed=9)
    parts = block_components(spec, a)
    assert len(parts) == 4
    assert np.allclose(as_matrix(parts[0]), as_matrix(a))
    t = spec.contraction
    assert np.allclose(as_matrix(parts[1]), t @ as_matrix(a) @ t.conj().T, atol=1e-12)
    assert np.allclose(as_matrix(parts[2]), as_matrix(a) / 2.0)
    # the weighted-functional block commutes with everything diagonal
    assert np.allclose(as_matrix(parts[3]), np.diag(np.diag(as_matrix(parts[3]))))


def test_block_counterexample_preserves_verdicts():
    spec = random_block_spec(2, seed=10)
    for s in range(8):
        a = random_effect(2, seed=700 + s)
        b = random_effect(2, seed=800 + s)
        base = decide(a, b)
        moved = decide_blockwise(list(block_components(spec, a)),
                                 list(block_components(spec, b)))
        if base.definite and moved.definite:
            assert base.verdict == moved.verdict


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockCounterexampleSpec(
            contraction=2.0 * np.eye(2, dtype=complex),
            vectors=(np.array([1.0, 0.0], dtype=complex),),
            diagonals=(np.ones(2),),
        )
    # NaN fails every range test, so each test must be written to fail closed.
    for vector, diagonal in (([2.0, 0.0], [1.0, 1.0]), ([np.nan, 0.0], [0.5, 0.5]),
                             ([1.0, 0.0], [np.nan, 0.5]), ([1.0, 0.0, 0.0], [1.0, 1.0]),
                             ([1.0, 0.0], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError):
            BlockCounterexampleSpec(
                contraction=np.eye(2, dtype=complex),
                vectors=(np.array(vector, dtype=complex),),
                diagonals=(np.array(diagonal),),
            )
    x, g = np.array([1.0, 0.0], dtype=complex), np.ones(2)
    for contraction, vectors, diagonals, message in (
            (np.eye(2, 3, dtype=complex), (x,), (g,), "contraction must be square"),
            (np.eye(2, dtype=complex), (), (), "equally many vectors and diagonals"),
            (np.eye(2, dtype=complex), (x, x), (g,), "equally many vectors and diagonals")):
        with pytest.raises(ValueError, match=message):
            BlockCounterexampleSpec(contraction, vectors, diagonals)
    # np.array(..., dtype=float) would read "0.5" and True as numbers.
    for diagonal in ([True, "0.5"], [0.5, True], ["0.5", 1.0], np.array([True, False]),
                     np.array(["0.5", "1"])):
        with pytest.raises(ValueError, match="diagonal must hold real numbers"):
            BlockCounterexampleSpec(np.eye(2, dtype=complex), (x,), (diagonal,))
    spec = BlockCounterexampleSpec(np.eye(2, dtype=complex), (x,), ([np.float32(0.5), 1],))
    assert spec.diagonals[0].dtype == float and spec.diagonals[0].tolist() == [0.5, 1.0]


def test_specs_refuse_arrays_that_are_not_numbers():
    x, g = np.array([1.0, 0.0], dtype=complex), np.ones(2)
    strings, bools = np.eye(2).astype(str), np.eye(2, dtype=bool)
    for unitary in ([["1", "0"], ["0", "1"]], strings, bools):
        for make in (StandardAutomorphismSpec, GesBijectiveSpec):
            with pytest.raises(ValueError, match="matrix must hold real or complex numbers"):
                make(unitary)
    for contraction in (strings, bools, np.eye(2, dtype=object)):
        with pytest.raises(ValueError, match="contraction must hold real or complex"):
            BlockCounterexampleSpec(contraction, (x,), (g,))
    for vector in (["1", "0"], np.array(["1", "0"]), np.array([True, False])):
        with pytest.raises(ValueError, match="vector must hold real or complex"):
            BlockCounterexampleSpec(np.eye(2), (vector,), (g,))


def test_block_spec_owns_read_only_copies_of_its_arrays():
    t, x, g = 0.5 * np.eye(2, dtype=complex), np.array([1.0, 0.0], dtype=complex), np.ones(2)
    spec = BlockCounterexampleSpec(t, (x,), (g,))
    a = random_effect(2, seed=53)
    before = as_matrix(apply_block_counterexample(spec, a)).copy()
    assert t.flags.writeable and x.flags.writeable and g.flags.writeable
    assert not (spec.contraction.flags.writeable or spec.vectors[0].flags.writeable
                or spec.diagonals[0].flags.writeable)
    t[:], x[:], g[:] = 0.0, [0.0, 1.0], 0.0
    assert np.array_equal(as_matrix(apply_block_counterexample(spec, a)), before)


def test_ges_first_selector_with_identity_grid_is_conjugation():
    u = random_unitary(3, np.random.default_rng(11))
    spec = GesBijectiveSpec(u, selector="first")
    std = StandardAutomorphismSpec(u)
    for s in range(5):
        a = random_effect(3, seed=900 + s)
        gap = np.linalg.norm(as_matrix(apply_ges_bijective(spec, a))
                             - as_matrix(apply_standard(std, a)))
        assert gap <= 1e-13


def test_ges_scalar_lookup():
    flipped = GesBijectiveSpec(np.eye(3, dtype=complex),
                               grid=1.0 - np.linspace(0.0, 1.0, 1025))
    on_node = apply_ges_bijective(flipped, Effect(0.25 * np.eye(3, dtype=complex)))
    assert np.allclose(as_matrix(on_node), 0.75 * np.eye(3), atol=1e-15)
    off_node = apply_ges_bijective(flipped, Effect(0.3 * np.eye(3, dtype=complex)))
    # 0.3 is snapped to the nearest 1/1024 node before lookup
    assert abs(as_matrix(off_node)[0, 0].real - 0.7) <= 1.0 / 1024.0


def test_ges_routes_pairs_consistently():
    spec = random_ges_spec(3, seed=12)
    for s in range(10):
        a = random_effect(3, seed=1000 + s)
        img = as_matrix(apply_ges_bijective(spec, a))
        img_perp = as_matrix(apply_ges_bijective(spec, orthocomplement(a)))
        assert np.linalg.norm(img_perp - (np.eye(3) - img)) <= 1e-12
        u = spec.unitary
        straight = u @ as_matrix(a) @ u.conj().T
        crossed = u @ (np.eye(3) - as_matrix(a)) @ u.conj().T
        assert (np.linalg.norm(img - straight) <= 1e-12
                or np.linalg.norm(img - crossed) <= 1e-12)


def test_ges_preserves_verdicts():
    spec = random_ges_spec(2, seed=13)
    handle = preserver_handle(spec)
    for s in range(10):
        a = random_effect(2, seed=1100 + s)
        b = random_effect(2, seed=1200 + s)
        base = decide(a, b)
        moved = decide(handle(a), handle(b))
        if base.definite and moved.definite:
            assert base.verdict == moved.verdict


def test_ges_spec_validation():
    with pytest.raises(ValueError):
        GesBijectiveSpec(np.eye(2, dtype=complex), grid=np.zeros(1025))
    with pytest.raises(ValueError, match="grid must hold 1025 values"):
        GesBijectiveSpec(np.eye(2, dtype=complex), grid=np.linspace(0.0, 1.0, 1024))
    nan_node = np.linspace(0.0, 1.0, 1025)
    nan_node[3] = np.nan
    with pytest.raises(ValueError):
        GesBijectiveSpec(np.eye(2, dtype=complex), grid=nan_node)
    with pytest.raises(ValueError):
        GesBijectiveSpec(np.eye(2, dtype=complex), selector="sometimes")
    # The hash selector writes the seed as 8 bytes on every apply.
    for seed in (-1, 2 ** 64, 2 ** 70, 1.0, True):
        with pytest.raises(ValueError):
            GesBijectiveSpec(np.eye(2, dtype=complex), selector_seed=seed)
    nodes = np.linspace(0.0, 1.0, 1025)
    for grid in ([str(v) for v in nodes], [True, *nodes[1:]], nodes.astype(str),
                 nodes.astype(object)):
        with pytest.raises(ValueError, match="grid must hold real numbers"):
            GesBijectiveSpec(np.eye(2, dtype=complex), grid=grid)
    assert np.array_equal(GesBijectiveSpec(np.eye(2), grid=list(nodes)).grid, nodes)
    spec = GesBijectiveSpec(np.eye(2, dtype=complex), selector_seed=np.uint64(2 ** 64 - 1))
    assert spec.selector_seed == 2 ** 64 - 1 and type(spec.selector_seed) is int
    apply_ges_bijective(spec, random_effect(2, seed=3))


def _spoiled(maker, spoil):
    doc = preserver_spec_document(maker())
    spoil(doc)
    return doc


@pytest.mark.parametrize("doc", [
    _spoiled(lambda: random_block_spec(2, seed=21),
             lambda d: d["vectors"][0].__setitem__(0, [1.0])),
    _spoiled(lambda: random_block_spec(2, seed=21),
             lambda d: d["vectors"][0].__setitem__(0, [1.0, 0.0, 0.0])),
    _spoiled(lambda: random_block_spec(2, seed=21),
             lambda d: d["diagonals"][0].__setitem__(0, float("nan"))),
    _spoiled(lambda: random_ges_spec(2, seed=22),
             lambda d: d.__setitem__("selector_seed", -1)),
    _spoiled(lambda: random_ges_spec(2, seed=22),
             lambda d: d.__setitem__("selector_seed", 2 ** 70)),
    _spoiled(lambda: random_standard_spec(2, seed=20),
             lambda d: d.__setitem__("transpose", "no")),
    _spoiled(lambda: random_standard_spec(2, seed=20),
             lambda d: d.__setitem__("perp", 1)),
    _spoiled(lambda: random_block_spec(2, seed=21),
             lambda d: d["diagonals"].__setitem__(0, ["0.5", True])),
    _spoiled(lambda: random_ges_spec(2, seed=22),
             lambda d: d["grid"].__setitem__(7, str(d["grid"][7]))),
    {"map": "trace-threshold", "dim": 3.9, "alpha": 1.0},
    {"map": "trace-threshold", "dim": "3", "alpha": 1.0},
    {"map": "trace-threshold", "dim": 3, "alpha": True},
    {"map": "trace-threshold", "dim": 3, "alpha": "2"},
    {"map": "trace-threshold", "dim": 3, "alpha": 10 ** 400},
    {"map": "rotation", "dim": 3},
    {"map": ["standard"], "dim": 3},
    _spoiled(lambda: random_standard_spec(2, seed=20),
             lambda d: d.update(transpos=d.pop("transpose"), prep=d.pop("perp"))),
    _spoiled(lambda: random_standard_spec(2, seed=20),
             lambda d: d["unitary"].__setitem__("scale", 2.0)),
    {"map": "trace-threshold", "dim": 3, "alpha": 1.0, "beta": 0.5},
    {"map": "trace-threshold", "alpha": 1.0},
    _spoiled(lambda: random_block_spec(2, seed=21), lambda d: d.__setitem__("terms", 2)),
    _spoiled(lambda: random_block_spec(2, seed=21), lambda d: d.pop("diagonals")),
    _spoiled(lambda: random_ges_spec(2, seed=22),
             lambda d: d.__setitem__("selecter", d.pop("selector"))),
    _spoiled(lambda: random_ges_spec(2, seed=22), lambda d: d.pop("grid")),
    [1],
], ids=["block-short-pair", "block-long-pair", "block-nan-diagonal", "ges-negative-seed",
        "ges-huge-seed", "standard-string-transpose", "standard-integer-perp",
        "block-string-diagonal", "ges-string-grid",
        "trace-float-dim", "trace-string-dim", "trace-bool-alpha", "trace-string-alpha",
        "trace-huge-alpha", "unknown-map-kind", "list-map-kind", "standard-misspelt-flags",
        "standard-unitary-extra-key", "trace-extra-key", "trace-missing-dim",
        "block-extra-key", "block-missing-diagonals", "ges-misspelt-selector",
        "ges-missing-grid", "list-document"])
def test_spec_documents_fail_closed(doc):
    with pytest.raises(FileFormatError):
        document_preserver_spec(doc)


def test_spec_document_errors_name_each_key():
    # Misspelt flags once loaded as a plain conjugation, with no error.
    doc = preserver_spec_document(random_standard_spec(2, seed=20))
    doc["transpos"], doc["prep"] = doc.pop("transpose"), doc.pop("perp")
    with pytest.raises(FileFormatError, match="standard spec document: unknown key "
                                              "'transpos', unknown key 'prep'"):
        document_preserver_spec(doc)
    with pytest.raises(FileFormatError, match="ges spec document: missing key 'grid', "
                                              "missing key 'unitary', unknown key 'seed'"):
        document_preserver_spec({"map": "ges", "seed": 1})


def test_trace_threshold_document_takes_json_numbers():
    # An integer alpha is a JSON number too; a missing alpha means 1.
    spec = document_preserver_spec({"map": "trace-threshold", "dim": 4, "alpha": 2})
    assert spec == TraceThresholdSpec(dim=4, alpha=2.0)
    assert type(spec.alpha) is float
    spec = document_preserver_spec({"map": "trace-threshold", "dim": 3})
    assert spec == TraceThresholdSpec(dim=3, alpha=1.0)


_DOCUMENT_KEYS = {
    "standard": ["map", "transpose", "perp", "unitary"],
    "trace-threshold": ["map", "dim", "alpha"],
    "block-cx": ["map", "contraction", "vectors", "diagonals"],
    "ges": ["map", "selector", "selector_seed", "grid", "unitary"],
}


@pytest.mark.parametrize("maker", [
    lambda: random_standard_spec(3, seed=20, transpose=True, perp=True),
    lambda: TraceThresholdSpec(dim=3, alpha=2.0),
    lambda: random_block_spec(3, seed=21),
    lambda: random_ges_spec(3, seed=22),
])
def test_spec_document_round_trip(maker):
    spec = maker()
    doc = preserver_spec_document(spec)
    # Each kind writes its keys in this order; the bytes depend on it.
    assert tuple(_DOCUMENT_KEYS) == MAP_KINDS
    assert list(doc) == _DOCUMENT_KEYS[doc["map"]]
    back = document_preserver_spec(doc)
    assert dumps_document(preserver_spec_document(back)) == dumps_document(doc)
    handle_a = preserver_handle(spec)
    handle_b = preserver_handle(back)
    a = random_effect(3, seed=23)
    assert np.allclose(as_matrix(handle_a(a)), as_matrix(handle_b(a)), atol=1e-15)


@pytest.mark.parametrize("not_a_spec", [np.eye(3), {"map": "standard"}],
                         ids=["array", "document"])
def test_spec_functions_refuse_what_is_not_a_spec(not_a_spec):
    for entry in (preserver_handle, preserver_spec_document):
        with pytest.raises(TypeError, match="not a preserver spec"):
            entry(not_a_spec)


@pytest.mark.parametrize("make, apply", [
    (lambda u, grid: StandardAutomorphismSpec(u), apply_standard),
    (GesBijectiveSpec, apply_ges_bijective),
], ids=["standard", "ges"])
def test_specs_own_read_only_copies_of_their_arrays(make, apply):
    u = random_unitary(3, np.random.default_rng(50))
    grid = np.linspace(0.0, 1.0, 1025)
    spec = make(u, grid)
    inputs = (random_effect(3, seed=51), Effect(0.25 * np.eye(3)))
    before = [as_matrix(apply(spec, x)).copy() for x in inputs]
    kept = u.copy()

    assert u.flags.writeable and grid.flags.writeable
    assert not spec.unitary.flags.writeable
    u[:] = 2.0 * np.eye(3)
    grid[:] = grid[::-1]
    assert np.array_equal(spec.unitary, kept)
    for x, image in zip(inputs, before):
        assert np.array_equal(as_matrix(apply(spec, x)), image)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("perp", [False, True])
def test_apply_standard_is_the_checked_conjugation_bit_for_bit(transpose, perp):
    spec = random_standard_spec(4, seed=52, transpose=transpose, perp=perp)
    for s in range(10):
        a = random_effect(4, seed=1300 + s)
        want = conjugate(a, spec.unitary, spec.transpose)
        if spec.perp:
            want = orthocomplement(want)
        assert as_matrix(apply_standard(spec, a)).tobytes() == as_matrix(want).tobytes()


@pytest.mark.parametrize("selector", ["hash", "first"])
def test_ges_images_are_the_checked_conjugations_bit_for_bit(selector):
    base = random_ges_spec(4, seed=53)
    spec = GesBijectiveSpec(base.unitary, base.grid, base.selector_seed, selector)
    routes = set()
    # A rank-2 projection and I minus it have equal traces: the pair is
    # routed by the tie-break on its quantised bytes.
    ties = [random_projection(4, 2, seed=1420 + s) for s in range(4)]
    ties += [orthocomplement(p) for p in ties]
    assert all(trace(p) == pytest.approx(2.0, abs=1e-12) for p in ties)
    for a in [random_effect(4, seed=1400 + s) for s in range(20)] + ties:
        straight = as_matrix(conjugate(a, spec.unitary)).tobytes()
        crossed = as_matrix(conjugate(Effect.trusted(np.eye(4) - as_matrix(a)),
                                      spec.unitary)).tobytes()
        image = as_matrix(apply_ges_bijective(spec, a)).tobytes()
        assert image in (straight, crossed)
        routes.add(image == straight)
    for p, q in zip(ties[:4], ties[4:]):
        pair = as_matrix(apply_ges_bijective(spec, p)) + as_matrix(apply_ges_bijective(spec, q))
        assert np.allclose(pair, np.eye(4), atol=1e-12)
    assert routes == ({True, False} if selector == "hash" else {True})


def test_returned_effects_are_read_only_and_own_their_arrays():
    # Maps, complements, conjugations, draws and witnesses hand over arrays
    # they have just made, uncopied: none may be writable or share memory
    # with an input, a spec's unitary or the cached identity.
    a = random_effect(3, seed=54)
    standard = [random_standard_spec(3, seed=55, transpose=bool(flags & 1),
                                     perp=bool(flags & 2)) for flags in range(4)]
    ges = random_ges_spec(3, seed=56)
    made = [orthocomplement(a), conjugate(a, ges.unitary), conjugate(a, ges.unitary, True),
            Effect.trusted(a.matrix), random_effect(3, seed=57),
            apply_ges_bijective(ges, a), apply_ges_bijective(ges, orthocomplement(a))]
    made += [apply_standard(spec, a) for spec in standard]
    for b in (Effect(0.3 * np.eye(3)), random_effect(3, seed=58)):
        res = decide(a, b)
        assert res.verdict is Verdict.COEXISTENT
        made += res.witness
    shared = [a.matrix, ges.unitary, hermitian._identity(3), *(s.unitary for s in standard)]
    for i, out in enumerate(made):
        assert not out.matrix.flags.writeable
        others = [e.matrix for j, e in enumerate(made) if j != i]
        assert not any(np.shares_memory(out.matrix, x) for x in shared + others)

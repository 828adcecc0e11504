"""Coexistence of quantum effects on finite-dimensional Hilbert spaces.

The package decides whether two effects admit a joint unsharp measurement,
produces and verifies splitting certificates, classifies effects by their
eigenvalue multiplicities at the endpoints, applies and inverts several
order-structure preserving maps, reconstructs the conjugation behind a
black-box automorphism, and ships a seeded property-test harness plus a
command line front end for all of it.
"""

from .hermitian import (
    CLASSIFY_TOL,
    EFFECT_SPECTRUM_TOL,
    HERMITICITY_TOL,
    INTERIOR_MARGIN,
    ORDER_TOL,
    DimensionMismatch,
    Effect,
    EigenDecomposition,
    NotHermitian,
    SpectrumOutOfRange,
    as_effect,
    as_matrix,
    clamped_effect,
    conjugate,
    direct_sum,
    eig,
    identity_effect,
    loewner_leq,
    operator_norm,
    orthocomplement,
    psd_part,
    random_effect,
    random_projection,
    random_unitary,
    require_hermitian,
    require_tolerance,
    require_unitary,
    spectrum,
    sqrt_psd,
    strictly_less,
    trace,
    zero_effect,
)
from .strata import (
    canonical_form,
    classify,
    freedom_dimension,
    is_projection,
    is_scalar,
)
from .coexistence import (
    CERT_TOL,
    FEAS_TOL,
    MAX_STEPS,
    SEP_TOL,
    CoexistenceVerdict,
    InvalidCertificate,
    Reason,
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
from .matrixio import (
    FileFormatError,
    document_matrix,
    dumps_document,
    format_float,
    loads_document,
    matrix_document,
    read_document,
    read_matrix,
    write_document,
    write_matrix,
)
from .preservers import (
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
from .reconstruction import (
    InconsistentMap,
    NonOrthogonalImages,
    NonProjectionImage,
    PhaseFitFailure,
    ReconstructionResult,
    detect_perp,
    phase_aligned_distance,
    reconstruct,
    verify_reconstruction,
)
from .harness import (
    RULE_FAMILIES,
    SUITE_NAMES,
    HarnessConfig,
    coexistent_pair,
    noncoexistent_pair,
    rank_one_peak_value,
    report_signature,
    rule_instance,
    run_all,
    run_suite,
    trial_rng,
    write_report,
)

__version__ = "0.1.0"

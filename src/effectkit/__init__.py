"""Coexistence of quantum effects on finite-dimensional Hilbert spaces.

The package decides whether two effects admit a joint unsharp measurement,
produces and verifies splitting certificates, classifies effects by their
eigenvalue multiplicities at the endpoints, applies and inverts several
order-structure preserving maps, reconstructs the conjugation behind a
black-box automorphism, and ships a seeded property-test harness plus a
command line front end for all of it.

This module exports the documented API below; every other name is imported
from its submodule (``effectkit.hermitian``, ``effectkit.harness``, ...).
"""

from .hermitian import Effect, psd_part
from .strata import classify, freedom_dimension
from .coexistence import (
    CERT_TOL,
    FEAS_TOL,
    MAX_STEPS,
    SEP_TOL,
    InvalidCertificate,
    Reason,
    Verdict,
    decide,
    fast_path,
    mn_to_efg,
    verify_mn,
)
from .matrixio import (
    document_matrix,
    loads_document,
    read_document,
    read_matrix,
    write_document,
    write_matrix,
)
from .preservers import (
    StandardAutomorphismSpec,
    document_preserver_spec,
    preserver_handle,
    preserver_spec_document,
)
from .reconstruction import reconstruct, verify_reconstruction

__version__ = "0.1.0"

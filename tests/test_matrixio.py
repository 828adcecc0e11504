import numpy as np
import pytest

from effectkit.hermitian import Effect, SpectrumOutOfRange, as_matrix, random_effect
from effectkit.matrixio import (
    FileFormatError,
    document_matrix,
    dumps_document,
    format_float,
    loads_document,
    matrix_document,
    read_matrix,
    write_matrix,
)


def test_format_float_has_17_significant_digits():
    assert format_float(0.5) == "5.0000000000000000e-01"
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.0) == "-0.0000000000000000e+00"
    # 17 significant decimal digits identify a double uniquely
    for x in (1 / 3, np.pi, 2 ** -52, 1e300, -7.25e-12):
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_matrix_document_shape():
    e = random_effect(2, seed=0)
    doc = matrix_document(e)
    assert doc["dim"] == 2
    assert doc["kind"] == "effect"
    assert len(doc["entries"]) == 4
    assert all(len(pair) == 2 for pair in doc["entries"])


def test_plain_matrix_document_has_no_kind():
    doc = matrix_document(np.eye(2, dtype=complex))
    assert "kind" not in doc


def test_write_read_round_trip_is_exact(tmp_path):
    e = random_effect(4, seed=9)
    path = tmp_path / "e.mat"
    write_matrix(path, e)
    back = read_matrix(path)
    assert isinstance(back, Effect)
    assert np.array_equal(as_matrix(back), as_matrix(e))


def test_write_read_plain_matrix(tmp_path):
    h = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    path = tmp_path / "h.mat"
    write_matrix(path, h)
    back = read_matrix(path)
    assert not isinstance(back, Effect)
    assert np.array_equal(back, h)


def test_serialisation_is_deterministic():
    doc = matrix_document(random_effect(3, seed=1))
    assert dumps_document(doc) == dumps_document(doc)
    text = dumps_document(doc)
    assert loads_document(text) == doc


def test_document_matrix_validates_shape():
    with pytest.raises(FileFormatError):
        document_matrix({"dim": 2, "entries": [[0.0, 0.0]] * 3})
    with pytest.raises(FileFormatError):
        document_matrix({"dim": 0, "entries": []})
    with pytest.raises(FileFormatError):
        document_matrix({"entries": [[0.0, 0.0]]})
    with pytest.raises(FileFormatError):
        document_matrix({"dim": 1, "entries": [[0.0]]})


def test_document_matrix_rejects_non_finite(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        for kind in ({}, {"kind": "effect"}):
            doc = {"dim": 1, **kind, "entries": [[value, 0.0]]}
            with pytest.raises(FileFormatError):
                document_matrix(doc)
    path = tmp_path / "nan.mat"
    path.write_text('{"dim": 1, "entries": [[NaN, 0.0]]}')
    with pytest.raises(FileFormatError):
        read_matrix(path)


def test_document_matrix_effect_kind_revalidates():
    doc = {"dim": 2, "kind": "effect",
           "entries": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
    with pytest.raises((FileFormatError, SpectrumOutOfRange)):
        document_matrix(doc)


def test_read_rejects_malformed_text(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("not a document")
    with pytest.raises(FileFormatError):
        read_matrix(path)
    path.write_text('["a", "list"]')
    with pytest.raises(FileFormatError):
        read_matrix(path)


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "absent.mat")

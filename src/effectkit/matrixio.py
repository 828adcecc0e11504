"""Text documents for matrices, certificates and reports.

Documents are JSON with a fixed float encoding: every float is written in
scientific notation with 17 significant digits, so values round-trip exactly
and identical data produces identical bytes.  A matrix document has fields
``dim`` and ``entries`` (row-major list of [re, im] pairs); effects carry an
extra ``"kind": "effect"`` marker and are re-validated on load.
"""

from __future__ import annotations

import json

import numpy as np

from .hermitian import Effect, as_matrix


class FileFormatError(ValueError):
    """A document is not valid JSON or violates the matrix schema."""


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite value in document")
    return format(x, ".16e")


def _encode(value, indent: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        deeper = indent + "  "
        rows = ",\n".join(
            f"{deeper}{json.dumps(str(k))}: {_encode(v, deeper)}"
            for k, v in value.items()
        )
        return "{\n" + rows + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        scalars = all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool)
            for v in value
        )
        if scalars and len(value) <= 2:
            return "[" + ", ".join(_encode(v, indent) for v in value) + "]"
        deeper = indent + "  "
        rows = ",\n".join(f"{deeper}{_encode(v, deeper)}" for v in value)
        return "[\n" + rows + "\n" + indent + "]"
    raise TypeError(f"cannot encode {type(value).__name__} in a document")


def dumps_document(doc: dict) -> str:
    """Serialize a document deterministically (keys in insertion order)."""
    return _encode(doc, "") + "\n"


def loads_document(text) -> dict:
    """The document held in JSON text: a str, or bytes in UTF-8."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("top-level document must be an object")
    return doc


def write_document(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(doc))


def read_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads_document(fh.read())
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text: {exc}") from exc


def matrix_document(matrix, kind: str | None = None) -> dict:
    """Document form of a matrix; Effects are marked kind "effect"."""
    if kind is None and isinstance(matrix, Effect):
        kind = "effect"
    m = as_matrix(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    doc = {"dim": int(m.shape[0])}
    if kind is not None:
        doc["kind"] = str(kind)
    doc["entries"] = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return doc


def complex_entries(entries) -> np.ndarray:
    """Complex vector held in a list of finite [re, im] number pairs."""
    if not isinstance(entries, list):
        raise FileFormatError("entries must be a list of [re, im] pairs")
    flat = np.empty(len(entries), dtype=complex)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair)):
            raise FileFormatError(f"entry {i} is not a [re, im] pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise FileFormatError(f"entry {i} is beyond float range") from exc
    if not np.isfinite(flat).all():
        raise FileFormatError("entries must be finite numbers")
    return flat


def document_matrix(doc: dict):
    """Matrix held in a document: an Effect if marked, else a plain array."""
    if not isinstance(doc, dict):
        raise FileFormatError("matrix document must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError("field 'dim' must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise FileFormatError(f"field 'entries' must hold {dim * dim} pairs")
    m = complex_entries(entries).reshape(dim, dim)
    kind = doc.get("kind")
    if kind == "effect":
        try:
            return Effect(m)
        except ValueError as exc:
            raise FileFormatError(f"document is not a valid effect: {exc}") from exc
    return m


def write_matrix(path, matrix, kind: str | None = None):
    write_document(path, matrix_document(matrix, kind))


def read_matrix(path):
    return document_matrix(read_document(path))

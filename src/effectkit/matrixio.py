"""Text documents for matrices, certificates and reports.

Documents are JSON with a fixed float encoding: every float is written in
scientific notation with 17 significant digits, so values round-trip exactly
and identical data produces identical bytes.  A matrix document has fields
``dim`` and ``entries`` (row-major list of [re, im] pairs); an effect also has
``"kind": "effect"``, the only kind accepted, and is re-validated on load.
Readers fail closed: a repeated key, an unknown key or a missing required
key is a FileFormatError, never read last-wins or ignored.
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


def _unique_keys(pairs) -> dict:
    """An object's (key, value) pairs as a dict; a repeated key is refused."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FileFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def loads_document(text) -> dict:
    """The document held in JSON text (a str, or bytes in UTF-8); no object
    in it may repeat a key."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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


def matrix_document(matrix) -> dict:
    """Document form of a matrix; Effects are marked kind "effect"."""
    m = as_matrix(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    doc = {"dim": int(m.shape[0])}
    if isinstance(matrix, Effect):
        doc["kind"] = "effect"
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


def check_keys(doc, what: str, required, optional=()) -> None:
    """Check that doc is an object holding every required key and no key
    outside required and optional; the error names each missing or
    unknown key."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what} must be an object")
    problems = ([f"missing key {k!r}" for k in required if k not in doc]
                + [f"unknown key {k!r}" for k in doc
                   if k not in required and k not in optional])
    if problems:
        raise FileFormatError(f"{what}: {', '.join(problems)}")


def document_matrix(doc: dict):
    """Matrix held in a document: an Effect if marked, else a plain array."""
    check_keys(doc, "matrix document", ("dim", "entries"), ("kind",))
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError("field 'dim' must be a positive integer")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise FileFormatError(f"field 'entries' must hold {dim * dim} pairs")
    m = complex_entries(entries).reshape(dim, dim)
    kind = doc.get("kind")
    if kind not in (None, "effect"):
        raise FileFormatError(f"field 'kind' must be \"effect\" or absent, got {kind!r}")
    if kind == "effect":
        try:
            return Effect(m)
        except ValueError as exc:
            raise FileFormatError(f"document is not a valid effect: {exc}") from exc
    return m


def write_matrix(path, matrix):
    write_document(path, matrix_document(matrix))


def read_matrix(path):
    return document_matrix(read_document(path))

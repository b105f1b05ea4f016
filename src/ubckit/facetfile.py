"""The shared facet-list file format.

A facet file is a JSON document with two fields: ``name`` (string) and
``facets`` (array of arrays of non-negative integers, 0-based vertex ids).
A key given twice in any object is rejected.  Invalid JSON names its line
and column, and a bad facet the line of its entry.  A file is
rejected before any complex is built when its facets could span more than
MAX_FACES faces (sum of 2^|F| over the listed facets): enumerating the face
lattice grows with that sum.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .complexes import SimplicialComplex, normalize_face


MAX_FACES = 2**20
_PUNCTUATION = re.compile(r"\s*[\[{:,]\s*")


class FacetFileError(ValueError):
    """Raised for malformed facet files; a bad facet's message names the
    line of its entry."""


def _unique_keys(pairs: list) -> dict:
    """The decoder's object hook: a key given twice is malformed input
    (RFC 8259 asks for unique names), not a value the last one overrides."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in keys if keys.count(key) > 1)
        raise FacetFileError(f"facet file has a duplicate key {json.dumps(key)}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _skip(text: str, pos: int) -> int:
    """Where the next token starts after the JSON value at pos and the
    punctuation that follows it."""
    return _PUNCTUATION.match(text, _DECODER.raw_decode(text, pos)[1]).end()


def _facet_line(text: str, index: int) -> int:
    """1-based line of the index-th entry of the top-level facets array.

    The text has decoded, so each step succeeds: the walk reads the
    top-level keys with the decoder, skipping each value, up to "facets",
    then skips index entries of that array, whatever their JSON type."""
    pos = _PUNCTUATION.match(text).end()  # at the first key
    while _DECODER.raw_decode(text, pos)[0] != "facets":
        pos = _skip(text, _skip(text, pos))  # past the key and its value
    pos = _PUNCTUATION.match(text, _skip(text, pos)).end()  # at the first entry
    for _ in range(index):
        pos = _skip(text, pos)
    return text.count("\n", 0, pos) + 1


def _facet_error(facet, idx: int, text: str) -> str:
    """The message for the first rule that facet #idx breaks: an array of
    integers (bools excluded), then normalize_face's rules."""
    at = f" (line {_facet_line(text, idx)})"
    if not isinstance(facet, list):
        return f"facet #{idx} is not an array{at}"
    for v in facet:
        if not isinstance(v, int) or isinstance(v, bool):
            return f"facet #{idx} holds a non-integer vertex {v!r}{at}"
    try:
        normalize_face(facet)
    except ValueError as e:
        return f"facet #{idx}: {e}{at}"


def parse_facet_text(text: str) -> tuple[str, SimplicialComplex]:
    """Parse a facet document into (name, complex)."""
    try:
        if text.startswith("\ufeff"):  # the check json.loads makes before it decodes
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise FacetFileError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise FacetFileError("invalid JSON: arrays or objects nested too deeply") from None
    except FacetFileError:  # a duplicate key, from _unique_keys
        raise
    except ValueError as e:  # an integer with more digits than int() converts
        raise FacetFileError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FacetFileError("facet file must contain a single JSON object")
    if "name" not in doc or not isinstance(doc["name"], str):
        raise FacetFileError('facet file needs a string field "name"')
    if "facets" not in doc or not isinstance(doc["facets"], list):
        raise FacetFileError('facet file needs an array field "facets"')
    facets = doc["facets"]
    if not facets:
        raise FacetFileError(
            '"facets" is empty: the void complex is not representable (use [[]] for the empty complex)'
        )
    faces = []
    for facet in facets:  # the rules of _facet_error, checked at C level
        face = tuple(sorted(facet)) if type(facet) is list and set(map(type, facet)) <= {int} else None
        if face is None or face and face[0] < 0 or len(set(face)) != len(face):
            raise FacetFileError(_facet_error(facet, len(faces), text))
        faces.append(face)
    bound = sum(2 ** len(face) for face in faces)
    if bound > MAX_FACES:
        raise FacetFileError(
            f"the facets span up to {bound} faces, more than the limit of {MAX_FACES}"
        )
    return doc["name"], SimplicialComplex._from_faces(faces)


def render_facet_text(name: str, sc: SimplicialComplex) -> str:
    """Deterministic facet document for a complex."""
    doc = {"name": name, "facets": [list(f) for f in sc.facets]}
    return json.dumps(doc, indent=2) + "\n"


def load_complex(path) -> tuple[str, SimplicialComplex]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise FacetFileError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FacetFileError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    try:
        return parse_facet_text(text)
    except FacetFileError as e:
        raise FacetFileError(f"{path}: {e}") from None


def save_complex(path, name: str, sc: SimplicialComplex) -> None:
    Path(path).write_text(render_facet_text(name, sc))

"""The shared facet-list file format.

A facet file is a JSON document with two fields: ``name`` (string) and
``facets`` (array of arrays of non-negative integers, 0-based vertex ids).
Parse errors name the offending line where one can be located.  A file is
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
_DECODER = json.JSONDecoder()
_SEPARATOR = re.compile(r"\s*,\s*")


class FacetFileError(ValueError):
    """Raised for malformed facet files; the message names the offending
    line when it can be located."""


def _facet_line(text: str, index: int) -> int | None:
    """1-based line of the index-th entry of the facets array, if findable.
    Every entry counts, whatever its JSON type; the decoder skips each one."""
    m = re.search(r'"facets"\s*:\s*\[\s*', text)
    if m is None:
        return None
    pos = m.end()
    for _ in range(index):
        try:
            pos = _DECODER.raw_decode(text, pos)[1]
        except ValueError:
            return None
        m = _SEPARATOR.match(text, pos)
        if m is None:
            return None
        pos = m.end()
    return text.count("\n", 0, pos) + 1


def _at_line(text: str, index: int) -> str:
    line = _facet_line(text, index)
    return f" (line {line})" if line is not None else ""


def parse_facet_text(text: str) -> tuple[str, SimplicialComplex]:
    """Parse a facet document into (name, complex)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FacetFileError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise FacetFileError("invalid JSON: arrays or objects nested too deeply") from None
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
    for idx, facet in enumerate(facets):
        if not isinstance(facet, list):
            raise FacetFileError(f"facet #{idx} is not an array{_at_line(text, idx)}")
        for v in facet:
            if not isinstance(v, int) or isinstance(v, bool):
                raise FacetFileError(
                    f"facet #{idx} holds a non-integer vertex {v!r}{_at_line(text, idx)}"
                )
        try:
            faces.append(normalize_face(facet))
        except ValueError as e:
            raise FacetFileError(f"facet #{idx}: {e}{_at_line(text, idx)}") from None
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

"""The shared facet-list file format."""

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ubckit import (
    FacetFileError,
    SimplicialComplex,
    boundary_simplex,
    load_complex,
    parse_facet_text,
    render_facet_text,
    save_complex,
)
from ubckit.complexes import normalize_face
from ubckit.facetfile import MAX_FACES


def test_round_trip(tmp_path):
    sc = boundary_simplex(3)
    path = tmp_path / "bd3.json"
    save_complex(path, "boundary-simplex-3", sc)
    name, back = load_complex(path)
    assert name == "boundary-simplex-3"
    assert back == sc


def test_render_is_deterministic():
    sc = boundary_simplex(3)
    assert render_facet_text("x", sc) == render_facet_text("x", sc)


def test_whitespace_insensitive():
    name, sc = parse_facet_text('{"name":"t","facets":[[0,1],\n  [1,\t2]]}')
    assert name == "t"
    assert sc.facets == ((0, 1), (1, 2))


def test_invalid_json_names_line():
    with pytest.raises(FacetFileError, match="line 2"):
        parse_facet_text('{"name": "x",\n "facets": [[0, 1]')


def test_missing_fields():
    with pytest.raises(FacetFileError, match='"name"'):
        parse_facet_text('{"facets": [[0]]}')
    with pytest.raises(FacetFileError, match='"facets"'):
        parse_facet_text('{"name": "x"}')
    with pytest.raises(FacetFileError, match="single JSON object"):
        parse_facet_text("[[0, 1]]")


def test_empty_facets_rejected():
    with pytest.raises(FacetFileError, match="void"):
        parse_facet_text('{"name": "x", "facets": []}')


def test_empty_complex_representable():
    _, sc = parse_facet_text('{"name": "empty", "facets": [[]]}')
    assert sc.dim == -1


def test_semantic_errors_name_line():
    text = '{\n  "name": "x",\n  "facets": [\n    [0, 1],\n    [1, 1]\n  ]\n}'
    with pytest.raises(FacetFileError, match=r"facet #1.*line 5"):
        parse_facet_text(text)
    text = '{\n  "name": "x",\n  "facets": [\n    [0, 1],\n    [1, 2.5]\n  ]\n}'
    with pytest.raises(FacetFileError, match=r"facet #1.*line 5"):
        parse_facet_text(text)


def test_non_array_facet():
    with pytest.raises(FacetFileError, match="facet #0"):
        parse_facet_text('{"name": "x", "facets": ["ab"]}')
    # every entry of the facets array counts towards the line, not only arrays
    with pytest.raises(FacetFileError, match=r"facet #0 is not an array \(line 2\)"):
        parse_facet_text('{"name": "x", "facets": [\n 7,\n [0, 1] ]}')
    for entry in ("7", '"[2], [3]"', '"a\\"]"', "null", '{"a": [1]}'):
        text = '{"name": "x", "facets": [\n [0],\n ' + entry + ',\n [0, 1]\n]}'
        with pytest.raises(FacetFileError, match=r"facet #1 is not an array \(line 3\)"):
            parse_facet_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # a "facets" key in a nested object before the top-level one
        ('{"name": "x",\n "extra": {"facets": [\n1]},\n\n\n "facets": [[0, 0]]}',
         "facet #0: face [0, 0] contains a duplicate vertex (line 6)"),
        # the key spelled with an escape
        ('{"name": "x",\n "fac\\u0065ts": [\n [0],\n [1, 1]]}',
         "facet #1: face [1, 1] contains a duplicate vertex (line 4)"),
        ('{"facets": [[0], {"facets": [1]}, [2]], "name": "x"}', "facet #1 is not an array (line 1)"),
        (' {\n"name" : "x" , "facets" :\n [ [0] , \n "a" ] }', "facet #1 is not an array (line 4)"),
    ],
)
def test_line_is_that_of_the_top_level_facets_array(text, message):
    with pytest.raises(FacetFileError) as err:
        parse_facet_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"name":"x","facets":[[0,1,2]],"facets":[[1]]}', '"facets"'),
        ('{"name":"x","facets":[[0]],"extra":{"a":1,"b":{"c":2,"c":[3]}}}', '"c"'),
        ('{"name":"x","facets":[[0],{"0":1,"1":2,"0":3}]}', '"0"'),
        ('{"name":"x","name":"x","facets":[[0]],"facets":[[0]]}', '"name"'),
        ('{"name":"x","facets":[[0]],"\\u00e9":1,"\u00e9":2}', '"\\u00e9"'),
    ],
)
def test_duplicate_key_is_rejected(tmp_path, capsys, text, key):
    from ubckit.cli import main

    with pytest.raises(FacetFileError) as err:
        parse_facet_text(text)
    assert str(err.value) == f"facet file has a duplicate key {key}"
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    assert main(["invariants", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ubckit: {path}: facet file has a duplicate key {key}\n"


def test_byte_order_mark_is_invalid_json():
    with pytest.raises(FacetFileError) as err:
        parse_facet_text('\ufeff{"name": "x", "facets": [[0]]}')
    assert str(err.value) == (
        "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")


def test_missing_file(tmp_path):
    with pytest.raises(FacetFileError, match="cannot read"):
        load_complex(tmp_path / "does-not-exist.json")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="integer string conversion is unlimited"
)
def test_oversized_integer_names_the_file(tmp_path, capsys):
    from ubckit.cli import main

    digits = sys.get_int_max_str_digits() + 1
    path = tmp_path / "huge.json"
    path.write_text('{"name": "x", "facets": [[' + "7" * digits + "]]}")
    with pytest.raises(FacetFileError, match=f"^{path}: invalid JSON: Exceeds the limit"):
        load_complex(path)
    assert main(["invariants", str(path)]) == 64
    assert capsys.readouterr().err.startswith(f"ubckit: {path}: invalid JSON: ")
    assert main(["sweep", "ubc", str(tmp_path)]) == 64
    assert capsys.readouterr().out.startswith(f"huge.json  error: {path}: invalid JSON: ")


def _document(entries):
    """A facet file whose i-th facet entry sits on line 4 + i."""
    return '{\n  "name": "x",\n  "facets": [\n    ' + ",\n    ".join(entries) + "\n  ]\n}"


@pytest.mark.parametrize(
    "entries, message",
    [
        (["[0, 1]", "[true]", '"ab"', "[-1]"], "facet #1 holds a non-integer vertex True (line 5)"),
        (["[0, 1]", "true", "[true]"], "facet #1 is not an array (line 5)"),
        (["[0, 1]", "7", "[1, 1]"], "facet #1 is not an array (line 5)"),
        (["[0, 1]", "[2, 2.5, -1]", "[true]"], "facet #1 holds a non-integer vertex 2.5 (line 5)"),
        (["[0, 1]", "[-1, null]", "[0, 0]"], "facet #1 holds a non-integer vertex None (line 5)"),
        (["[0, 1]", "[3, 3, -2]", "[0, 0]"],
         "facet #1: vertex ids must be non-negative, got -2 (line 5)"),
        (["[0, 1]", "[2, 1, 2]", "[-1]"], "facet #1: face [2, 1, 2] contains a duplicate vertex (line 5)"),
        # the per-facet checks come before the bound on the faces spanned
        ([str(list(range(21))), "[1, 1]"], "facet #1: face [1, 1] contains a duplicate vertex (line 5)"),
        ([str(list(range(21))), "[1, 0]", "[0, 1]"],
         f"the facets span up to {2**21 + 8} faces, more than the limit of {MAX_FACES}"),
    ],
)
def test_first_failing_facet_is_pinned(tmp_path, entries, message):
    text = _document(entries)
    with pytest.raises(FacetFileError) as err:
        parse_facet_text(text)
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FacetFileError) as err:
        load_complex(path)
    assert str(err.value) == f"{path}: {message}"


def test_parsed_facets_are_normalized_deduplicated_and_absorbed():
    text = _document(["[2, 0, 1]", "[1, 0]", "[0, 1, 2]", "[4, 3]", "[]", "[3, 4]", "[5]"])
    _, sc = parse_facet_text(text)
    assert sc.facets == ((0, 1, 2), (3, 4), (5,))
    assert sc == SimplicialComplex([[2, 0, 1], [1, 0], [0, 1, 2], [4, 3], [], [3, 4], [5]])


def _per_vertex_rules(text, spread):
    """The facets or the error text of the per-vertex loop that checked
    each vertex with isinstance and then called normalize_face; facet #idx
    is on line 4 + idx of a spread document, on line 1 otherwise."""
    faces = []
    for idx, facet in enumerate(json.loads(text)["facets"]):
        at = f" (line {4 + idx if spread else 1})"
        if not isinstance(facet, list):
            return f"facet #{idx} is not an array{at}"
        for v in facet:
            if not isinstance(v, int) or isinstance(v, bool):
                return f"facet #{idx} holds a non-integer vertex {v!r}{at}"
        try:
            faces.append(normalize_face(facet))
        except ValueError as e:
            return f"facet #{idx}: {e}{at}"
    return SimplicialComplex(faces)


_VERTICES = st.one_of(
    st.integers(-2, 6),
    st.booleans(),
    st.floats(-2, 6, allow_nan=False),
    st.sampled_from(["0", "a", None, {}]),
    st.lists(st.integers(0, 3), max_size=2),
)
_ENTRIES = st.one_of(
    st.lists(st.integers(0, 6), max_size=4),  # mostly well-formed facets
    st.lists(st.integers(-2, 6), max_size=4),
    st.lists(_VERTICES, max_size=4),
    st.sampled_from([0, True, 1.5, "01", None, {"0": 1}]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRIES, min_size=1, max_size=6), st.booleans())
@example([[0, 1], [0, 0, -1]], True)
@example([[0, 1], [2, -1], [1, 1]], False)
@example([[]], False)
@example([[2, 1], [False, 3]], True)
def test_facet_checks_match_the_per_vertex_rules(entries, spread):
    # one entry per line when spread, so the line in the message varies
    text = _document(map(json.dumps, entries)) if spread else json.dumps({"name": "x", "facets": entries})
    expected = _per_vertex_rules(text, spread)
    if isinstance(expected, str):
        with pytest.raises(FacetFileError) as err:
            parse_facet_text(text)
        assert str(err.value) == expected
    else:
        assert parse_facet_text(text) == ("x", expected)

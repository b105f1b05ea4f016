"""The shared facet-list file format."""

import pytest

from ubckit import (
    FacetFileError,
    SimplicialComplex,
    boundary_simplex,
    load_complex,
    parse_facet_text,
    render_facet_text,
    save_complex,
)
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


def test_missing_file(tmp_path):
    with pytest.raises(FacetFileError, match="cannot read"):
        load_complex(tmp_path / "does-not-exist.json")


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

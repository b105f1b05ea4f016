"""The shared facet-list file format."""

import pytest

from ubckit import (
    FacetFileError,
    boundary_simplex,
    load_complex,
    parse_facet_text,
    render_facet_text,
    save_complex,
)


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

"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubckit import build_complex, cli, gale_facets, generate, homology, save_complex, torus_7
from ubckit.cli import main
from ubckit.corpus import _GENERATORS
from ubckit.facetfile import MAX_FACES
from ubckit.verify import VERIFIERS


def _gen(tmp_path, spec, filename):
    path = tmp_path / filename
    assert main(["gen", *spec.split(" "), "-o", str(path)]) == 0
    return path


def test_gen_then_invariants(tmp_path, capsys):
    path = _gen(tmp_path, "cyclic 4 9", "c49.json")
    capsys.readouterr()
    assert main(["invariants", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "cyclic-4-9"
    assert doc["h_vector"] == [1, 5, 15, 5, 1]
    assert doc["f_vector"] == [1, 9, 36, 54, 27]


def test_gen_round_trip(tmp_path):
    from ubckit import generate, load_complex

    path = _gen(tmp_path, "suspension(torus-7)", "st.json")
    name, sc = load_complex(path)
    expected_name, expected = generate("suspension(torus-7)")
    assert name == expected_name
    assert sc == expected


def test_gen_to_stdout(capsys):
    assert main(["gen", "boundary-simplex", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"name": "boundary-simplex-2", "facets": [[0, 1], [0, 2], [1, 2]]}


def test_verify_exit_codes(tmp_path, capsys):
    wedge = _gen(tmp_path, "wedge(boundary-simplex(4),boundary-simplex(4))", "wedge.json")
    st = _gen(tmp_path, "suspension(torus-7)", "st.json")
    capsys.readouterr()

    assert main(["verify", "ubc", str(wedge)]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {c["label"]: c for c in doc["conclusions"]}
    assert rows["f_3 <= f_3(C_4(9))"] == {
        "label": "f_3 <= f_3(C_4(9))",
        "left": 10,
        "right": 27,
        "holds": True,
    }

    assert main(["verify", "ubc", str(st)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "hypotheses-not-met"
    failing = [h for h in doc["hypotheses"] if h["status"] is False]
    assert {h["condition"] for h in failing} == {
        "link of vertex 7 is admissible",
        "link of vertex 8 is admissible",
    }


def test_verify_conclusion_failure_exit_code(tmp_path, capsys):
    # hypotheses hold but a conclusion fails: a hand-made non-palindromic
    # "Eulerian" complex does not exist, so use lemma-hh on a sphere minus
    # nothing; instead check exit 1 is reachable through a doctored report
    from ubckit.verify import Inequality, Hypothesis, VerificationReport

    report = VerificationReport(
        "ubc",
        (Hypothesis("x", True, None),),
        (Inequality("f_1 <= f_1(C)", 5, 4, False),),
    )
    assert report.overall == "fail"
    assert report.exit_code == 1


def test_classify_cli(tmp_path, capsys):
    path = tmp_path / "torus.json"
    save_complex(path, "torus-7", torus_7())
    assert main(["classify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["semi_eulerian"] is True
    assert doc["eulerian"] is False
    assert doc["witnesses"]["eulerian"]["face"] == []


def test_classify_deterministic_output(tmp_path, capsys):
    path = tmp_path / "torus.json"
    save_complex(path, "torus-7", torus_7())
    main(["classify", str(path)])
    first = capsys.readouterr().out
    main(["classify", str(path)])
    second = capsys.readouterr().out
    assert first == second


def test_sweep(tmp_path, capsys):
    _gen(tmp_path, "boundary-simplex 4", "a-bd4.json")
    _gen(tmp_path, "suspension(torus-7)", "b-st.json")
    _gen(tmp_path, "cyclic 4 7", "c-c47.json")
    capsys.readouterr()
    code = main(["sweep", "ubc", str(tmp_path)])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("a-bd4.json") and lines[0].endswith("pass")
    assert lines[1].startswith("b-st.json") and lines[1].endswith("hypotheses-not-met")
    assert lines[2].startswith("c-c47.json") and lines[2].endswith("pass")
    assert lines[3].startswith("# ubc: 2 pass, 0 fail, 1 hypotheses-not-met")
    assert code == 2


def test_sweep_all_pass_exit_zero(tmp_path, capsys):
    _gen(tmp_path, "boundary-simplex 4", "a.json")
    _gen(tmp_path, "cyclic 4 8", "b.json")
    capsys.readouterr()
    assert main(["sweep", "ubc", str(tmp_path)]) == 0


def test_sweep_continues_past_errors(tmp_path, capsys):
    _gen(tmp_path, "boundary-simplex 4", "a.json")
    (tmp_path / "b.json").write_text("{broken")
    _gen(tmp_path, "torus-7", "c.json")  # wrong parity: verify errors
    capsys.readouterr()
    code = main(["sweep", "ubc", str(tmp_path)])
    out = capsys.readouterr().out
    assert "a.json" in out and "b.json" in out and "c.json" in out
    assert code == 64


_USAGE_ERRORS = {
    (): "the following arguments are required: command",
    ("no-such-command",): "argument command: invalid choice: 'no-such-command' "
    "(choose from 'invariants', 'classify', 'verify', 'gen', 'sweep')",
    ("verify", "nonsense", "x.json"): "argument statement: invalid choice: 'nonsense' "
    "(choose from 'dehn-sommerville', 'lemma-hh', 'lower-bounds', 'sphere-ubc', 'ubc')",
    ("invariants",): "the following arguments are required: file",
    ("invariants", "a", "b"): "unrecognized arguments: b",
    ("gen", "-o", "x"): "the following arguments are required: spec",
}


def test_usage_errors_exit_64(tmp_path, capsys):
    # argparse alone writes usage errors and help, with these texts
    for argv, message in _USAGE_ERRORS.items():
        assert main(list(argv)) == 64
        assert capsys.readouterr().err == f"ubckit: error: {message}\n"
    for argv in (["--help"], ["gen", "--help"]):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ubckit")
    assert main(["verify", "ubc", str(tmp_path / "missing.json")]) == 64
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "facets": [[0, 0]]}')
    assert main(["invariants", str(bad)]) == 64
    capsys.readouterr()


def test_gen_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    assert main(["gen", "cyclic", "4", "8", "-o", str(target)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"ubckit: cannot write {target}: ") and err.count("\n") == 1
    assert "internal error" not in err
    assert main(["gen", "cyclic", "4", "8", "-o", str(tmp_path)]) == 64
    assert f"cannot write {tmp_path}: " in capsys.readouterr().err


_LOADED_AFTER = """
import contextlib, io, json, sys
from ubckit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
watched = ("argparse", "dataclasses", "decimal", "fractions", "gettext", "ubckit.corpus",
           "ubckit.cyclic", "ubckit.homology", "ubckit.verify")
print(json.dumps(sorted(m for m in watched if m in sys.modules)))
"""


def _loaded_after(*argv) -> list[str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_commands_load_only_what_they_run(tmp_path):
    # start-up budget: dataclasses, fractions (with decimal), the generators
    # and the statements stay out of invariants and classify; the link
    # classifiers (homology) stay out of invariants and gen cyclic; verify
    # ubc loads the statements and the cyclic h-vector, gen the generators,
    # and gen torus-7 the classifiers that validate its embedded data;
    # argparse (with gettext) loads only for a command line that is not
    # well-formed
    path = tmp_path / "t7.json"
    save_complex(path, "torus-7", torus_7())
    sphere = tmp_path / "c48.json"
    save_complex(sphere, "cyclic-4-8", gale_facets(4, 8))
    assert _loaded_after("invariants", str(path)) == []
    assert _loaded_after("classify", str(path)) == ["ubckit.homology"]
    assert _loaded_after("verify", "ubc", str(sphere)) == [
        "ubckit.cyclic", "ubckit.homology", "ubckit.verify"]
    assert _loaded_after("gen", "cyclic", "4", "8") == ["ubckit.corpus", "ubckit.cyclic"]
    assert _loaded_after("gen", "torus-7") == ["ubckit.corpus", "ubckit.cyclic", "ubckit.homology"]
    assert "argparse" in _loaded_after("verify", "nonsense", "x.json")


def _load_bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_finds_what_it_wraps():
    # bench/tracer.py wraps betti_numbers in every module that binds it,
    # cli included, and looks each listed name up on its module
    tracer = _load_bench_module("tracer")
    assert cli.betti_numbers is homology.betti_numbers
    missing = []
    for module, names in tracer.WRAPPED.items():
        for name in names:
            owner = importlib.import_module(f"ubckit.{module}")
            for attr in name.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"{module}.{name}")
    assert missing == []


def _plain_command_lines():
    workloads = _load_bench_module("workloads")
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload):
            yield [arg.replace("{in}", "in").replace("{out}", "out") for arg in op["args"]]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("ubckit "):
            yield shlex.split(line, comments=True)[1:]


def test_benchmark_and_readme_command_lines_skip_argparse():
    argvs = list(_plain_command_lines())
    assert len(argvs) > 20
    for argv in argvs:
        args = cli._plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


_COMMAND_NAMES = ["invariants", "classify", "verify", "gen", "sweep"]
_ARGV_TOKENS = st.sampled_from(
    _COMMAND_NAMES
    + list(cli.STATEMENTS)
    + ["cyclic", "torus-7", "cone(torus-7)", "boundary-simplex", "4", "8", "12"]
    + ["c.json", "out.json", "some dir/", "x y.json"]
    + ["-o", "--output", "--out", "--output=x", "-ox", "-h", "--", "-", "-4", ""]
    + ["zzz", "inv", "verif", "Gen", "UBC"]
)


# 0-7 tokens, often led by a command name or ending in an -o/--output pair
_ARGVS = st.one_of(
    st.lists(_ARGV_TOKENS, max_size=7),
    st.tuples(st.sampled_from(_COMMAND_NAMES), st.lists(_ARGV_TOKENS, max_size=6)).map(
        lambda drawn: [drawn[0], *drawn[1]]),
    st.tuples(
        st.sampled_from(_COMMAND_NAMES), st.lists(_ARGV_TOKENS, max_size=4),
        st.sampled_from(["-o", "--output"]), _ARGV_TOKENS,
    ).map(lambda drawn: [drawn[0], *drawn[1], drawn[2], drawn[3]]),
)


@settings(max_examples=600, deadline=None)
@given(_ARGVS)
def test_plain_parse_agrees_with_argparse(argv):
    # every argv the plain parse accepts, argparse reads the same way
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


def test_statement_choices_are_the_verifiers():
    assert cli.STATEMENTS == tuple(sorted(VERIFIERS))


def test_deeply_nested_spec_is_a_usage_error(capsys):
    spec = "cone(" * 2000 + "torus-7" + ")" * 2000
    assert main(["gen", spec]) == 64
    err = capsys.readouterr().err
    assert "nested more than" in err and err.count("\n") == 1


def test_deeply_nested_facet_file_is_a_usage_error(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"name": "deep", "facets": ' + "[" * depth + "]" * depth + "}")
    assert main(["invariants", str(path)]) == 64
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "internal error" not in err
    assert main(["sweep", "ubc", str(tmp_path)]) == 64
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("deep.json  error: ") and "nested too deeply" in line
    assert "internal error" not in line


def test_facet_file_with_too_many_faces_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "facets": [list(range(24))]}))
    start = time.perf_counter()
    assert main(["invariants", str(path)]) == 64
    assert time.perf_counter() - start < 1.0
    assert f"more than the limit of {MAX_FACES}" in capsys.readouterr().err
    assert main(["sweep", "ubc", str(tmp_path)]) == 64
    assert capsys.readouterr().out.startswith("huge.json  error: ")


def test_gen_over_the_face_limit_is_a_usage_error(tmp_path, capsys):
    # 26 facets of 25 vertices span 26 * 2^25 faces: no facet file may hold them
    path = tmp_path / "big.json"
    assert main(["gen", "boundary-simplex", "25", "-o", str(path)]) == 64
    assert capsys.readouterr().err == (
        f"ubckit: error: boundary-simplex-25 would span more than the limit of {MAX_FACES} faces\n"
    )
    assert not path.exists()


def test_non_utf8_facet_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["invariants", str(path)]) == 64
    assert capsys.readouterr().err == f"ubckit: {path}: not UTF-8 text: invalid start byte at byte 0\n"


def test_sweep_continues_past_non_utf8_file(tmp_path, capsys):
    _gen(tmp_path, "boundary-simplex 4", "a.json")
    (tmp_path / "b.json").write_bytes(b"\xff\xfe{")
    _gen(tmp_path, "cyclic 4 8", "c.json")
    capsys.readouterr()
    code = main(["sweep", "ubc", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("a.json") and lines[0].endswith("pass")
    assert lines[1] == f"b.json  error: {tmp_path / 'b.json'}: not UTF-8 text: invalid start byte at byte 0"
    assert lines[2].startswith("c.json") and lines[2].endswith("pass")
    assert lines[3].startswith("# ubc: 2 pass, 0 fail, 0 hypotheses-not-met, 1 error")
    assert code == 64


def test_unreadable_facet_file_names_the_path_once(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["invariants", str(missing)]) == 64
    assert capsys.readouterr().err == f"ubckit: cannot read {missing}: No such file or directory\n"
    _gen(tmp_path, "boundary-simplex 4", "a.json")
    (tmp_path / "b.json").mkdir()  # the sweep's *.json glob matches it
    capsys.readouterr()
    assert main(["sweep", "ubc", str(tmp_path)]) == 64
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"b.json  error: cannot read {tmp_path / 'b.json'}: Is a directory"
    assert lines[1].count(str(tmp_path)) == 1


def test_internal_error_exits_70(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path, "boundary-simplex 3", "s.json")

    def broken(sc):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(homology, "classify", broken)
    capsys.readouterr()
    assert main(["classify", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ubckit: internal error: RuntimeError: simulated internal fault\n"


def test_sweep_continues_past_internal_error(tmp_path, capsys, monkeypatch):
    _gen(tmp_path, "boundary-simplex 4", "a.json")
    _gen(tmp_path, "cyclic 4 7", "b.json")
    _gen(tmp_path, "cyclic 4 8", "c.json")
    real_load = cli.load_complex

    def load(path):
        if Path(path).name == "b.json":
            raise RecursionError("maximum recursion depth exceeded")
        return real_load(path)

    monkeypatch.setattr(cli, "load_complex", load)
    capsys.readouterr()
    code = main(["sweep", "ubc", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("a.json") and lines[0].endswith("pass")
    assert lines[1].startswith("b.json")
    assert lines[1].endswith("error: internal error: RecursionError: maximum recursion depth exceeded")
    assert lines[2].startswith("c.json") and lines[2].endswith("pass")
    assert lines[3].startswith("# ubc: 2 pass, 0 fail, 0 hypotheses-not-met, 1 error")
    assert code == 64


def test_invariants_impure_short_h_not_applicable(tmp_path, capsys):
    path = tmp_path / "impure.json"
    path.write_text('{"name": "impure", "facets": [[0, 1, 2], [2, 3]]}')
    assert main(["invariants", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pure"] is False
    assert doc["short_h_vector"] == "not-applicable"


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    path = _gen(tmp_path, "cyclic 4 7", "c.json")
    capsys.readouterr()
    main(["verify", "ubc", str(path)])
    first = capsys.readouterr().out
    main(["verify", "ubc", str(path)])
    second = capsys.readouterr().out
    assert first == second


GOLDEN = Path(__file__).parent / "golden"


def _minus_facet():
    sc = gale_facets(4, 8)
    return "cyclic-4-8-minus-facet", build_complex(sc.facets[1:])


@pytest.mark.parametrize(
    "make, golden",
    [
        (_minus_facet, "verify-ubc-cyclic-4-8-minus-facet.json"),
        # the suspension apexes and the wedge point meet in edges whose link
        # is two disjoint triangles
        (
            lambda: generate("suspension(wedge(boundary-simplex(3),boundary-simplex(3)))"),
            "verify-ubc-singular-edge-link.json",
        ),
    ],
    ids=["minus-facet", "singular-edge-link"],
)
def test_verify_ubc_witnesses_are_pinned(tmp_path, capsys, make, golden):
    name, sc = make()
    path = tmp_path / "c.json"
    save_complex(path, name, sc)
    assert main(["verify", "ubc", str(path)]) == 2
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_verify_ubc_on_a_5_dimensional_complex_is_pinned(tmp_path, capsys):
    # ridge links of the deleted facet are single points; the edge links
    # are 3-dimensional, so the vertex-link pass meets links of dimension
    # 0, 1 and 2 and the Betti route of dimension 3 in one complex
    sc = gale_facets(6, 10)
    path = tmp_path / "c.json"
    save_complex(path, "cyclic-6-10-minus-facet", build_complex(sc.facets[1:]))
    assert main(["verify", "ubc", str(path)]) == 2
    assert capsys.readouterr().out == (GOLDEN / "verify-ubc-cyclic-6-10-minus-facet.json").read_text()


@pytest.mark.parametrize("statement", ["dehn-sommerville", "lower-bounds"])
@pytest.mark.parametrize(
    "make, stem",
    [
        (lambda: generate("join(torus-7,torus-7)"), "join-torus-7-torus-7"),
        (
            lambda: ("cyclic-6-10-minus-facet", build_complex(gale_facets(6, 10).facets[1:])),
            "cyclic-6-10-minus-facet",
        ),
        (lambda: generate("suspension(torus-7)"), "suspension-torus-7"),
    ],
    ids=["join-of-tori", "minus-facet", "suspended-torus"],
)
def test_verify_link_statements_are_pinned(tmp_path, capsys, statement, make, stem):
    # chi failures at a triangle (the join: its link is the other torus), a
    # ridge (the deleted facet) and a vertex (a suspension apex); Buchsbaum
    # failures at vertex 0 of the join and at an apex, whose links are not
    # Cohen-Macaulay because a torus is a link in them; the ball passes
    name, sc = make()
    path = tmp_path / "c.json"
    save_complex(path, name, sc)
    golden = (GOLDEN / f"verify-{statement}-{stem}.json").read_text()
    assert main(["verify", statement, str(path)]) == json.loads(golden)["exit_code"]
    assert capsys.readouterr().out == golden


def _sweep_directory(directory):
    for n in (8, 9, 12):
        sc = gale_facets(4, n)
        save_complex(directory / f"cyclic-4-{n}.json", f"cyclic-4-{n}", sc)
        minus = build_complex(sc.facets[: n // 2] + sc.facets[n // 2 + 1 :])
        save_complex(directory / f"cyclic-4-{n}-minus-facet.json", f"cyclic-4-{n}-minus-facet", minus)
    for spec in ("suspension(torus-7)", "suspension(rp2-6)"):
        save_complex(directory / f"{spec.replace('(', '-').rstrip(')')}.json", *generate(spec))
    (directory / "malformed.json").write_text('{"name": "bad", "facets": [[0, 1, 2], [2, 2, 3]]}')


def test_sweep_ubc_is_pinned(tmp_path, capsys):
    _sweep_directory(tmp_path)
    assert main(["sweep", "ubc", str(tmp_path)]) == 64
    out = capsys.readouterr().out.replace(str(tmp_path), "DIR")
    assert out == (GOLDEN / "sweep-ubc.txt").read_text()


@pytest.mark.parametrize(
    "spec, golden",
    [
        ("torus-7", "classify-torus-7.json"),
        ("rp2-6", "classify-rp2-6.json"),
        ("suspension(torus-7)", "classify-suspension-torus-7.json"),
        ("wedge(boundary-simplex(3),boundary-simplex(3))", "classify-wedge-of-2-spheres.json"),
        ([[0, 1, 2], [0, 3, 4]], "classify-bowtie.json"),
        ([[0, 1, 2], [2, 3]], "classify-impure.json"),
    ],
    ids=["torus", "rp2", "suspended-torus", "wedge", "bowtie", "impure"],
)
def test_classify_witnesses_are_pinned(tmp_path, capsys, spec, golden):
    # every witness kind: Eulerian failures at the empty face (torus, rp2,
    # wedge), an edge (bowtie) and a vertex (suspended torus); Cohen-Macaulay
    # failures at the empty face (torus) and at vertices; the Buchsbaum
    # vertex witness; non-orientability (rp2); an impure complex
    if isinstance(spec, str):
        name, sc = generate(spec)
    else:
        name, sc = golden[len("classify-") : -len(".json")], build_complex(spec)
    path = tmp_path / "c.json"
    save_complex(path, name, sc)
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


_COMMANDS = [["invariants"], ["classify"]] + [["verify", name] for name in sorted(VERIFIERS)]
_NAMES = st.sampled_from(sorted(_GENERATORS))
_INTS = st.integers(0, 6).map(str)
_LEAVES = st.one_of(
    st.sampled_from(["torus-7", "rp2-6"]),
    st.tuples(st.sampled_from(["boundary-simplex", "cross-polytope"]), _INTS).map(
        lambda call: f"{call[0]}({call[1]})"),
    st.tuples(_INTS, _INTS).map(lambda ints: f"cyclic({ints[0]},{ints[1]})"),
)
# Two levels at most: a join of two larger leaves already takes about a second.
_CALLS = st.one_of(
    _LEAVES,
    st.tuples(st.sampled_from(["cone", "suspension"]), _LEAVES).map(
        lambda call: f"{call[0]}({call[1]})"),
    st.tuples(st.sampled_from(["join", "disjoint-union", "wedge"]), _LEAVES, _LEAVES).map(
        lambda call: f"{call[0]}({call[1]},{call[2]})"),
)
_TOKENS = st.lists(st.one_of(_NAMES, _INTS, st.sampled_from(["(", ")", ","])), max_size=10)
_SPECS = st.one_of(_CALLS, _TOKENS.map(" ".join))


@st.composite
def _facet_files(draw) -> bytes:
    doc = {
        "name": draw(st.text(max_size=4)),
        "facets": draw(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=6)),
    }
    data = json.dumps(doc).encode()
    if draw(st.booleans()):  # splice in junk text or bytes that are not UTF-8
        cut = draw(st.integers(0, len(data)))
        junk = draw(st.one_of(st.text(max_size=6).map(str.encode), st.binary(max_size=6)))
        data = data[:cut] + junk + data[cut:]
    return data


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(_facet_files(), st.sampled_from(_COMMANDS), _SPECS)
def test_exit_codes_under_hostile_input(data, command, spec):
    # Never 70 (internal error) and never an uncaught exception.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        assert _exit_code([*command, str(path)]) in (0, 1, 2, 64)
        assert _exit_code(["sweep", "lower-bounds", tmp]) in (0, 1, 2, 64)
    assert _exit_code(["gen", spec]) in (0, 64)

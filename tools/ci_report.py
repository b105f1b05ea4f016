"""Report-only CI summaries, each a markdown heading and a fenced block on stdout.

``PYTHONPATH=src python tools/ci_report.py never-run``: tier-1 again under a
stdlib line tracer, then the statements of src/ubckit that no in-process test
ran; ``size``: lines and code lines of each src/ubckit file, the change
against the parent commit, the code lines there and each module whose code
lines grew; ``compile``: the median time of 21 ``compile()`` calls on each
src/ubckit file, which a process pays for every module it imports when no
bytecode is cached, and its code lines, summed over all files and over the
"cli base", the files that ``import ubckit.cli`` loads, which every CLI
process compiles before its command runs; ``ladder``: in-process time of public
calls on large complexes.  No report has a bound, so a slow runner cannot
fail one.
"""

import ast
import contextlib
import dis
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ubckit"


def never_run():
    import pytest
    from hypothesis import settings

    settings.register_profile("traced", deadline=None)  # tracing slows every example
    settings.load_profile("traced")
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(SRC)) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    with contextlib.redirect_stdout(sys.stderr):  # pytest's progress stays out of the report
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-W", "ignore::pytest.PytestAssertRewriteWarning", str(ROOT / "tests")])
    sys.settrace(None)
    yield f"tier-1 exit code under the tracer: {code}"
    for path in sorted(SRC.glob("*.py")):
        codes, lines = [compile(path.read_text(), str(path), "exec")], set()
        while codes:  # a line is a statement where a code object starts one
            c = codes.pop()
            lines.update(line for _, line in dis.findlinestarts(c) if line)
            codes.extend(k for k in c.co_consts if hasattr(k, "co_code"))
        missing = sorted(lines - {line for name, line in hit if name == str(path)})
        yield " ".join([f"{path.name}: {len(missing)} of {len(lines)} never run:", *map(str, missing)])


def code_lines(text):
    """Count the lines that are not blank, ``#`` comments or module, class or function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def size():
    rows = [(text.count("\n"), code_lines(text), path.name)
            for path in sorted(SRC.glob("*.py")) for text in [path.read_text()]]
    yield " lines   code  file"
    total = (sum(row[0] for row in rows), sum(row[1] for row in rows), "total")
    for lines, code, name in rows + [total]:
        yield f"{lines:6} {code:6}  {name}"

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    diff = git("diff", "--shortstat", "HEAD~1", "--", "src/ubckit")
    yield "change against the parent commit: " + (
        diff.stdout.strip() if diff.returncode == 0 else "(no parent commit)")
    listing = git("ls-tree", "--name-only", "HEAD~1", "--", "src/ubckit/")
    parent = {Path(name).name: code_lines(git("show", f"HEAD~1:{name}").stdout)
              for name in listing.stdout.split() if name.endswith(".py")}
    before = sum(parent.values())
    grown = [f"{name} {parent.get(name, 0)} -> {code}" for _, code, name in rows
             if code > parent.get(name, 0)]
    yield "code lines at the parent commit: " + (
        f"{before} ({total[1] - before:+d})" if listing.returncode == 0 else "(no parent commit)")
    yield "modules whose code lines grew: " + (
        (", ".join(grown) or "none") if listing.returncode == 0 else "(no parent commit)")


def compile_times():
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text, times = path.read_text(), []
        for _ in range(21):
            start = perf_counter()
            compile(text, str(path), "exec")
            times.append(perf_counter() - start)
        rows.append((1e3 * median(times), code_lines(text), path.name))
    loaded = subprocess.run([sys.executable, "-c", "import sys, ubckit.cli; print(*sys.modules)"],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout.split()
    base = {f"{m.partition('.')[2] or '__init__'}.py" for m in loaded if m.partition(".")[0] == "ubckit"}

    def summed(picked, name):
        return sum(r[0] for r in picked), sum(r[1] for r in picked), name

    yield "    ms   code  file"
    for ms, code, name in rows + [summed(rows, "total"),
                                  summed([r for r in rows if r[2] in base], "cli base")]:
        yield f"{ms:6.2f} {code:6}  {name}"


def ladder():
    from ubckit import (SimplicialComplex, betti_numbers, boundary_simplex, build_complex,
                        check_lower_bounds, check_ubc_hypotheses, classify, cone, cross_polytope,
                        disjoint_union, gale_facets, is_buchsbaum, is_cohen_macaulay, is_eulerian,
                        join, neighborliness, projective_plane_6, short_h_from_links, torus_7,
                        verify_ubc, wedge)

    def link_of_vertex_0(sc):  # tests (0,) against the facets, builds no lattice
        return sc.link((0,))

    face_counts = SimplicialComplex.face_counts
    checks = (is_eulerian, is_buchsbaum, classify)
    # impure complexes: every link is read off the facets, none is a sphere
    impure = (classify, is_cohen_macaulay)
    coned = cone(cross_polytope(6))
    rows = [
        # face queries; sphere links of dimension >= 3, decided by strong
        # collapses; Buchsbaum from one walk, on spheres that pass
        ("cross-polytope 9", cross_polytope(9), (face_counts, betti_numbers, link_of_vertex_0,
                                                 short_h_from_links, classify, check_lower_bounds)),
        ("cyclic 8-14", gale_facets(8, 14),
         (face_counts, betti_numbers, neighborliness, classify, check_lower_bounds)),
        ("solid 15-simplex", build_complex([range(15)]), (face_counts, betti_numbers)),
        ("solid 18-simplex", build_complex([range(18)]), (face_counts,)),
        # check_ubc_hypotheses on a passing and a failing 5-dimensional complex
        ("cyclic 4-30", gale_facets(4, 30), checks),
        ("cyclic 6-20", gale_facets(6, 20), checks + (check_ubc_hypotheses, verify_ubc)),
        ("cross-polytope 7", cross_polytope(7), checks),
        ("join(torus-7,torus-7)", join(torus_7(), torus_7()), checks + (check_ubc_hypotheses,)),
        ("cone(cross-polytope 6) + pendant edge",
         build_complex(coned.facets + ((0, coned.n_vertices),)), impure),
        ("cross-polytope 6 + boundary-simplex 2",
         disjoint_union(cross_polytope(6), boundary_simplex(2)), impure),
        # Buchsbaum, alone and inside classify, which reads it off the same
        # one walk as its other flags: the least vertex passes, so the walk
        # runs to its end; a witness found early in the walk, at the least
        # vertex; and one found only at the least vertex's own face, in the
        # walk's last level
        ("join(torus-7,rp2-6)", join(torus_7(), projective_plane_6()), (is_buchsbaum, classify)),
        ("join(rp2-6,torus-7)", join(projective_plane_6(), torus_7()), (is_buchsbaum, classify)),
        ("wedge(cp7,cp7) + join(torus-7,cp4)",
         disjoint_union(wedge(cross_polytope(7), cross_polytope(7)),
                        join(torus_7(), cross_polytope(4))), (is_buchsbaum, classify)),
    ]
    for name, sc, row in rows:
        times = []
        for check in row:
            if check is not betti_numbers:  # betti_numbers reads the lattice face_counts built
                fresh = build_complex(sc.facets)
            start = perf_counter()
            check(fresh)
            times.append(f"{check.__name__} {1e3 * (perf_counter() - start):.1f} ms")
        yield f"{name}: " + ", ".join(times)


REPORTS = {
    "never-run": ("src/ubckit statements that tier-1 never runs (in-process tests only)", never_run),
    "size": ("src/ubckit lines and code lines (no blank, comment or docstring lines)", size),
    "compile": ("median time of 21 compile() calls and code lines of each src/ubckit file, summed",
                compile_times),
    "ladder": ("in-process time of public calls, each on a fresh complex but betti_numbers", ladder),
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in REPORTS:
        sys.exit(f"usage: python tools/ci_report.py {{{','.join(REPORTS)}}}")
    heading, report = REPORTS[sys.argv[1]]
    print(f"### {heading}\n```")
    for line in report():
        print(line, flush=True)
    print("```")

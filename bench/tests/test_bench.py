"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

The run tests start the benchmark on every workload and take about a minute.
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import check
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] has children a [1, 4] and b [5, 6]; a has child g [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_group_time_counts_nested_calls_of_the_group_once():
    # h_from_f [1, 3] runs inside short_h_from_links [0, 4]; both are transforms
    names = ["vectors.short_h_from_links", "vectors.h_from_f", "cli.main"]
    dump = {"names": names, "counters": {}, "start": [0.0, 0.0, 1.0], "end": [9.0, 4.0, 3.0],
            "parent": [-1, 0, 1], "name": [2, 0, 1]}
    totals = tracer.Totals()
    totals.add(dump)
    metrics = totals.metrics()
    assert metrics["vectors.transforms.calls"] == (2, "count")
    assert metrics["vectors.transforms.s"] == (4.0, "s")
    assert metrics["cli.main.self_s"] == (5.0, "s")


def test_every_listed_function_is_wrapped_in_every_binding():
    modules = tracer.ubckit_modules()
    undo, missing = tracer.install(tracer.Tracer(), modules)
    try:
        assert missing == []
        assert tracer.unwrapped_bindings(modules) == []
        verify = next(m for m in modules if m.__name__ == "ubckit.verify")
        wrapped = verify.betti_numbers
        verify.betti_numbers = wrapped.__wrapped__
        try:
            assert tracer.unwrapped_bindings(modules) == [
                "homology.betti_numbers bound unwrapped as ubckit.verify.betti_numbers"]
        finally:
            verify.betti_numbers = wrapped
    finally:
        tracer.uninstall(undo)
    assert "homology.betti_numbers bound unwrapped as ubckit.cli.betti_numbers" in \
        tracer.unwrapped_bindings(modules)


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_equals_untraced_stdout(workload):
    # The traced run fails an operation whose traced stdout or exit code
    # differs from its untraced run, so a clean result means byte equality.
    result, stderr = _run(workload, trace=1)
    assert result["failed"] == 0 and result["correct"], stderr
    assert result["attempted"] == 2 * len(workloads.operations(workload))
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_untraced_run_prints_every_end_to_end_metric():
    result, stderr = _run("links-many", trace=0)
    assert result["correct"], stderr
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def _op(op_id):
    return next(op for w in workloads.WORKLOADS for op in workloads.operations(w) if op["id"] == op_id)


def test_gate_flags_corrupted_output(tmp_path):
    reference = check.load_reference()

    op = _op("invariants cyclic-6-12")
    doc = {k: v for k, v in reference[op["id"]].items() if k != "exit"}
    assert check.problems(op, 0, json.dumps(doc), tmp_path, reference) == []
    assert check.problems(op, 1, json.dumps(doc), tmp_path, reference)
    assert check.problems(op, 0, json.dumps(doc)[:-5], tmp_path, reference)
    doc["betti"] = [0] * len(doc["betti"])
    assert check.problems(op, 0, json.dumps(doc), tmp_path, reference)

    op = _op("classify suspension(torus-7)")
    rec = reference[op["id"]]
    witness = {"face": [0], "reason": "any"}
    doc = {"name": rec["name"], **rec["flags"], "witnesses": {f: witness for f in rec["witnesses"]}}
    assert rec["witnesses"] and check.problems(op, 0, json.dumps(doc), tmp_path, reference) == []
    del doc["witnesses"][rec["witnesses"][0]]
    assert check.problems(op, 0, json.dumps(doc), tmp_path, reference)

    op = _op("sweep ubc")
    rec = reference[op["id"]]
    lines = [f"{name}  {outcome}" for name, outcome in rec["outcomes"].items()] + [rec["summary"]]
    assert check.problems(op, 64, "\n".join(lines) + "\n", tmp_path, reference) == []
    lines[0] = lines[0].replace("pass", "fail")
    assert check.problems(op, 64, "\n".join(lines) + "\n", tmp_path, reference)

    op = _op("gen cyclic 4 12")
    facets = workloads.cyclic(4, 12)
    out = tmp_path / "cyclic-4-12.json"
    out.write_text(json.dumps({"name": "cyclic-4-12", "facets": facets}))
    assert check.problems(op, 0, "", tmp_path, reference) == []
    out.write_text(json.dumps({"name": "cyclic-4-12", "facets": facets[1:]}))
    assert check.problems(op, 0, "", tmp_path, reference)


def test_reference_agrees_with_closed_forms():
    reference = check.load_reference()
    assert check.closed_form_problems(reference) == []
    ids = {op["id"] for w in workloads.WORKLOADS for op in workloads.operations(w)}
    assert set(reference) == ids


def _face_counts(facets):
    faces = {f for facet in facets for k in range(len(facet) + 1) for f in combinations(facet, k)}
    counts = {}
    for face in faces:
        counts[len(face)] = counts.get(len(face), 0) + 1
    return counts


def _read(directory):
    return {p.relative_to(directory).as_posix(): p.read_text() for p in directory.rglob("*.json")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_the_files_but_not_the_invariants(tmp_path, workload):
    seeds = (1, 2, 3)
    files = []
    for seed in seeds:
        workloads.write_inputs(workload, seed, tmp_path / str(seed))
        files.append(_read(tmp_path / str(seed)))
    workloads.write_inputs(workload, 1, tmp_path / "again")
    assert _read(tmp_path / "again") == files[0]
    assert all(sorted(f) == sorted(files[0]) for f in files)
    for rel in files[0]:
        docs = [json.loads(f[rel]) for f in files]
        assert len({d["name"] for d in docs}) == 1
        if rel.endswith("malformed.json"):
            continue
        assert all(_face_counts(d["facets"]) == _face_counts(docs[0]["facets"]) for d in docs), rel
        # A relabelling can be an automorphism: every one is for the simplex
        # boundary, one in ten is for the join of two triangles.
        if not rel.endswith("boundary-simplex-4.json"):
            assert len({json.dumps(d["facets"]) for d in docs}) > 1, rel


def test_gale_enumeration_matches_brute_force_on_the_moment_curve_order():
    # Gale's condition stated pairwise, as in the literature, on small cases
    def pairwise(d, n):
        out = []
        for s in combinations(range(n), d):
            rest = [v for v in range(n) if v not in s]
            if all(sum(i < x < j for x in s) % 2 == 0 for i, j in combinations(rest, 2)):
                out.append(s)
        return out

    for d, n in ((2, 5), (3, 7), (4, 9), (5, 9), (6, 10)):
        assert workloads.cyclic(d, n) == pairwise(d, n)

"""Correctness gate of the benchmark.

Each operation's exit code and the parts of its output that do not depend
on the vertex labelling are compared with ``reference.json``, which was
made by ``make_reference.py`` and cross-checked there against closed forms.
Witness faces depend on the labelling, so for ``classify`` only their
presence is checked: a witness exactly for each flag that is false.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

FLAGS = ("pure", "eulerian", "semi_eulerian", "homology_sphere", "homology_manifold",
         "orientable", "pseudomanifold", "cohen_macaulay", "buchsbaum")


def load_reference():
    return json.loads(REFERENCE.read_text())


def observe(op, exit_code, stdout, out_dir):
    """The label-independent record of one operation's result.  Raises
    ValueError, KeyError or TypeError on output it cannot read."""
    kind = op["args"][0]
    rec = {"exit": exit_code}
    if kind == "invariants":
        rec.update(json.loads(stdout))
    elif kind == "classify":
        doc = json.loads(stdout)
        rec["name"] = doc["name"]
        rec["flags"] = {flag: doc[flag] for flag in FLAGS}
        rec["witnesses"] = sorted(doc["witnesses"])
    elif kind == "verify":
        doc = json.loads(stdout)
        for key in ("name", "statement", "overall", "exit_code", "conclusions_vacuous", "conclusions"):
            rec[key] = doc[key]
        rec["hypotheses"] = [
            {"condition": h["condition"], "status": h["status"], "witness": h["witness"] is not None}
            for h in doc["hypotheses"]
        ]
    elif kind == "sweep":
        outcomes = {}
        lines = stdout.splitlines()
        for line in lines[:-1]:
            name, outcome = line.split(None, 1)
            outcomes[name] = "error" if outcome.startswith("error:") else outcome
        rec["outcomes"] = outcomes
        rec["summary"] = lines[-1]
    elif kind == "gen":
        rec["stdout"] = stdout
        doc = json.loads((Path(out_dir) / Path(op["args"][-1]).name).read_text())
        rec["name"] = doc["name"]
        rec["facets"] = sorted(sorted(f) for f in doc["facets"])
    else:
        raise ValueError(f"unknown command {kind!r}")
    return rec


def expected_record(op, reference):
    """The reference record; for gen, the facets of the benchmark's own
    Gale-evenness enumeration (gen's labelling is fixed: 0..n-1)."""
    rec = dict(reference[op["id"]])
    if op["args"][0] == "gen":
        d, n = int(op["args"][2]), int(op["args"][3])
        rec["facets"] = [list(f) for f in workloads.cyclic(d, n)]
    return rec


def problems(op, exit_code, stdout, out_dir, reference):
    """Why the operation's result is wrong; empty when it is right."""
    try:
        rec = observe(op, exit_code, stdout, out_dir)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
        return [f"{op['id']}: unreadable output (exit {exit_code}): {type(e).__name__}: {e}"]
    expected = expected_record(op, reference)
    found = [f"{op['id']}: {key} is {rec.get(key)!r}, expected {expected.get(key)!r}"
             for key in sorted(set(rec) | set(expected)) if rec.get(key) != expected.get(key)]
    if op["args"][0] == "classify":
        false_flags = sorted(flag for flag in FLAGS if rec["flags"][flag] is False)
        if rec["witnesses"] != false_flags:
            found.append(f"{op['id']}: witnesses for {rec['witnesses']}, false flags {false_flags}")
    return found


# --- closed forms the reference must agree with -------------------------------


def cyclic_h(d, n):
    return [comb(n - d + min(i, d - i) - 1, min(i, d - i)) for i in range(d + 1)]


def f_from_h(h):
    """(f_-1, ..., f_{d-1}) from (h_0, ..., h_d)."""
    d = len(h) - 1
    return [sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(d + 1)]


def sphere_betti(dim):
    """Reduced Betti numbers b_-1..b_dim of a dim-sphere."""
    return [0] * (dim + 1) + [1]


def _closed_form(name):
    """(f-vector, h-vector, Betti numbers) known in closed form, or None."""
    if name.startswith("cyclic-"):
        d, n = map(int, name.split("-")[1:])
        return f_from_h(cyclic_h(d, n)), cyclic_h(d, n), sphere_betti(d - 1)
    if name.startswith("cross-polytope-"):
        d = int(name.rsplit("-", 1)[1])
        h = [comb(d, i) for i in range(d + 1)]
        return [2 ** j * comb(d, j) for j in range(d + 1)], h, sphere_betti(d - 1)
    return None


def closed_form_problems(reference):
    """Disagreements between the reference and the closed forms: f- and
    h-vectors of cyclic polytopes (f from the cyclic h-vector) and
    cross-polytopes, sphere Betti numbers for both, zero reduced homology
    for the cone and for the join with the rational-acyclic RP^2, sphere
    flags for every classified sphere, palindromic cyclic h in
    Dehn-Sommerville, and the sweep outcome of every file by its kind."""
    found = []
    for op_id, rec in reference.items():
        command, _, rest = op_id.partition(" ")
        name = rest.split()[-1]
        known = _closed_form(name)
        if command == "invariants":
            if known is not None:
                f, h, betti = known
                if (rec["f_vector"], rec["h_vector"], rec["betti"]) != (f, h, betti):
                    found.append(f"{op_id}: f, h or Betti numbers differ from the closed form")
            elif name in ("cone(boundary-simplex-8)", "join(torus-7,rp2-6)"):
                if any(rec["betti"]):
                    found.append(f"{op_id}: reduced homology is not zero")
        elif command == "classify" and known is not None:
            if rec["flags"] != {flag: True for flag in FLAGS} or rec["witnesses"]:
                found.append(f"{op_id}: a sphere is not classified as one")
        elif op_id == "verify dehn-sommerville cyclic-4-30":
            h = cyclic_h(4, 30)
            rows = [(c["left"], c["right"], c["holds"]) for c in rec["conclusions"]]
            if rec["overall"] != "pass" or rows != [(h[i], h[4 - i], True) for i in range(5)]:
                found.append(f"{op_id}: not the palindromic cyclic h-vector")
        elif op_id == "verify lower-bounds cyclic-4-30":
            if rec["overall"] != "pass":
                found.append(f"{op_id}: a 3-sphere fails the Buchsbaum lower bounds")
        elif command == "sweep":
            expected = {workloads.file_name(n): "pass" for n in workloads.SWEEP_PASS}
            expected.update({workloads.file_name(n): "hypotheses-not-met" for n in workloads.SWEEP_NOT_MET})
            expected.update({f"{n}-minus-facet.json": "hypotheses-not-met" for n in workloads.SWEEP_MINUS_FACET})
            expected["malformed.json"] = "error"
            if rec["outcomes"] != expected or rec["exit"] != 64:
                found.append(f"{op_id}: outcomes differ from the expected kind of each file")
    return found

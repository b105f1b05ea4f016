"""Benchmark workloads: the operation list of each workload and its inputs.

The input complexes are built here, independently of ubckit, so that a
defect in ubckit's own generators cannot change what the benchmark feeds
it.  ``--seed`` picks a random vertex relabelling of every input file and
the seeded variants of ubc-pipeline (which facet is deleted, which facet of
the malformed file is broken).  Every invariant the correctness gate checks
is independent of the labelling, so all seeds share one reference.

Run as a script to write the input files of one workload:

    python3 bench/workloads.py WORKLOAD SEED DIRECTORY

The benchmark does this in a child process, so that its own process stays
small: a child's ``ru_maxrss`` starts from the resident size of the process
that spawned it.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, product
from pathlib import Path

# --- independent generators -------------------------------------------------


def boundary_simplex(d):
    return [tuple(f) for f in combinations(range(d + 1), d)]


def cross_polytope(d):
    return [tuple(f) for f in product(*[(2 * i, 2 * i + 1) for i in range(d)])]


def cyclic(d, n):
    """Facets of the cyclic d-polytope on 0..n-1: d-subsets whose interior
    blocks of consecutive vertices (not containing 0 or n-1) all have even
    length (Gale's evenness condition, stated blockwise)."""
    facets = []
    for s in combinations(range(n), d):
        ok = True
        start = 0
        while start < d:
            end = start
            while end + 1 < d and s[end + 1] == s[end] + 1:
                end += 1
            if s[start] != 0 and s[end] != n - 1 and (end - start + 1) % 2:
                ok = False
                break
            start = end + 1
        if ok:
            facets.append(s)
    return facets


def torus_7():
    """Moebius' 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = set()
    for i in range(7):
        tris.add(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.add(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return sorted(tris)


def rp2_6():
    """The 6-vertex projective plane (hemi-icosahedron): vertex 0 has the
    pentagon 1-2-3-4-5 as its link."""
    cap = [(0, i, i % 5 + 1) for i in range(1, 6)]
    rest = [(1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return sorted(tuple(sorted(f)) for f in cap + rest)


def _shift(facets, offset):
    return [tuple(v + offset for v in f) for f in facets]


def _n_vertices(facets):
    return max(v for f in facets for v in f) + 1


def join(a, b):
    b = _shift(b, _n_vertices(a))
    return [fa + fb for fa in a for fb in b]


def cone(a):
    apex = _n_vertices(a)
    return [f + (apex,) for f in a]


def suspension(a):
    north = _n_vertices(a)
    return [f + (north,) for f in a] + [f + (north + 1,) for f in a]


# --- workloads ----------------------------------------------------------------

# name -> facets, for every complex a workload reads from a file.  The names
# are ubckit's canonical spec names, so a report's "name" field is checkable.
COMPLEXES = {
    "cross-polytope-4": lambda: cross_polytope(4),
    "cross-polytope-5": lambda: cross_polytope(5),
    "cross-polytope-6": lambda: cross_polytope(6),
    "boundary-simplex-4": lambda: boundary_simplex(4),
    "cone(boundary-simplex-8)": lambda: cone(boundary_simplex(8)),
    "join(torus-7,rp2-6)": lambda: join(torus_7(), rp2_6()),
    "join(boundary-simplex-2,boundary-simplex-2)": lambda: join(boundary_simplex(2), boundary_simplex(2)),
    "suspension(torus-7)": lambda: suspension(torus_7()),
    "suspension(rp2-6)": lambda: suspension(rp2_6()),
}
for _d, _n in ((4, 6), (4, 8), (4, 10), (4, 12), (4, 14), (4, 16), (4, 18), (4, 20), (4, 22),
               (4, 24), (4, 26), (4, 28), (4, 30), (5, 11), (6, 10), (6, 12)):
    COMPLEXES[f"cyclic-{_d}-{_n}"] = lambda d=_d, n=_n: cyclic(d, n)

# The ubc-pipeline sweep directory: odd-dimensional files, so that `verify ubc`
# applies to each.  The "-minus-facet" files are cyclic 3-spheres with one
# seeded facet deleted (expected outcome: hypotheses-not-met); "malformed"
# has one seeded facet with a repeated vertex (expected: error).
SWEEP_PASS = [f"cyclic-4-{n}" for n in range(6, 31, 2)] + [
    "cyclic-6-10",
    "cross-polytope-4",
    "boundary-simplex-4",
    "join(boundary-simplex-2,boundary-simplex-2)",
]
SWEEP_NOT_MET = ["suspension(torus-7)", "suspension(rp2-6)"]
SWEEP_MINUS_FACET = ["cyclic-4-12", "cyclic-4-18", "cyclic-4-24"]
GEN_LADDER = (12, 18, 24, 30)


def _op(op_id, args, inputs=()):
    return {"id": op_id, "args": list(args), "inputs": list(inputs)}


def operations(workload):
    """The workload's operation list.  ``args`` is the ubckit command line,
    with ``{in}/`` standing for the input directory and ``{out}/`` for a
    scratch directory; ``inputs`` are the input files the command reads."""
    if workload == "betti-large":
        names = ["cross-polytope-6", "cyclic-6-12", "cyclic-4-24",
                 "join(torus-7,rp2-6)", "cone(boundary-simplex-8)"]
        return [_op(f"invariants {n}", ["invariants", f"{{in}}/{file_name(n)}"], [file_name(n)])
                for n in names]
    if workload == "links-many":
        names = ["cyclic-4-20", "cyclic-5-11", "cross-polytope-5", "cross-polytope-6",
                 "suspension(torus-7)"]
        ops = [_op(f"classify {n}", ["classify", f"{{in}}/{file_name(n)}"], [file_name(n)])
               for n in names]
        f = file_name("cyclic-4-30")
        for statement in ("dehn-sommerville", "lower-bounds"):
            ops.append(_op(f"verify {statement} cyclic-4-30",
                           ["verify", statement, f"{{in}}/{f}"], [f]))
        return ops
    if workload == "ubc-pipeline":
        ops = [_op(f"gen cyclic 4 {n}", ["gen", "cyclic", "4", str(n), "-o", f"{{out}}/cyclic-4-{n}.json"])
               for n in GEN_LADDER]
        ops.append(_op("sweep ubc", ["sweep", "ubc", "{in}/sweep"],
                       [f"sweep/{name}" for name in sweep_files()]))
        return ops
    raise KeyError(workload)


WORKLOADS = ("betti-large", "links-many", "ubc-pipeline")


def file_name(name):
    return f"{name}.json"


def sweep_files():
    """File names of the sweep directory, in the order `sweep` visits them."""
    names = [file_name(n) for n in SWEEP_PASS + SWEEP_NOT_MET]
    names += [f"{n}-minus-facet.json" for n in SWEEP_MINUS_FACET]
    names.append("malformed.json")
    return sorted(names)


# --- seeded files -------------------------------------------------------------


def relabel(facets, rng):
    """Facets under a random permutation of the vertex ids, sorted the way
    ubckit renders them."""
    n = _n_vertices(facets)
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[v] for v in f)) for f in facets)


def _document(name, facets):
    return json.dumps({"name": name, "facets": [list(f) for f in facets]}) + "\n"


def write_inputs(workload, seed, directory):
    """Write the workload's input files under ``directory``."""
    directory = Path(directory)
    rng = random.Random(f"{workload}/{seed}")
    files = {}
    if workload == "ubc-pipeline":
        for name in SWEEP_PASS + SWEEP_NOT_MET:
            files[f"sweep/{file_name(name)}"] = (name, relabel(COMPLEXES[name](), rng))
        for name in SWEEP_MINUS_FACET:
            facets = COMPLEXES[name]()
            del facets[rng.randrange(len(facets))]
            files[f"sweep/{name}-minus-facet.json"] = (f"{name}-minus-facet", relabel(facets, rng))
        facets = [list(f) for f in relabel(COMPLEXES["cyclic-4-10"](), rng)]
        broken = facets[rng.randrange(len(facets))]
        broken.append(broken[0])
        files["sweep/malformed.json"] = ("malformed", facets)
    else:
        for op in operations(workload):
            for rel in op["inputs"]:
                if rel not in files:
                    name = rel[: -len(".json")]
                    files[rel] = (name, relabel(COMPLEXES[name](), rng))
    for rel, (name, facets) in files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_document(name, facets))
    return sorted(files)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIRECTORY")
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])

"""Outside-in tracing of ubckit, for the benchmark's per-layer numbers.

The tracer wraps listed public functions of each ``ubckit`` module from
outside the program.  A function is wrapped in every module namespace that
binds it, module-level dicts included: ``betti_numbers`` is bound in
``homology``, ``verify``, ``corpus`` and ``cli``, and a call made through a
``from .homology import ...`` name would bypass a wrapper placed only in
``homology``.  Hot helpers such as ``normalize_face`` and ``binomial`` stay
unwrapped; their time counts towards the caller.

Each call records a span (name, start, end, parent) in flat arrays; the
spans are written out when the process ends.  Self times are derived
afterwards: a span's duration minus the part of it its child spans cover.

Run as a script to execute one ubckit command under the tracer:

    python3 bench/tracer.py SPANS_FILE ubckit-argument...

Standard output and the exit code are those of ``python -m ubckit``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from array import array
from math import comb
from pathlib import Path
from time import perf_counter

# module -> wrapped names; "Class.method" wraps a method on its class.
WRAPPED = {
    "homology": (
        "boundary_matrix", "matrix_rank", "betti_numbers",
        "is_eulerian", "is_semi_eulerian", "is_homology_manifold", "is_homology_sphere",
        "is_pseudomanifold", "is_cohen_macaulay", "is_buchsbaum", "classify",
        "connected_components", "satisfies_betti_bound",
    ),
    "complexes": ("SimplicialComplex.__init__", "SimplicialComplex.link", "SimplicialComplex.faces"),
    "cyclic": ("gale_facets",),
    "verify": (
        "verify_ubc", "check_ubc_hypotheses", "check_lemma_hh", "check_sphere_ubc",
        "check_dehn_sommerville", "check_lower_bounds",
    ),
    "vectors": ("h_from_f", "f_from_h", "short_h_from_f", "f_from_short_h", "h_from_short_h",
                "short_h_from_links"),
    "facetfile": ("load_complex", "render_facet_text"),
    "corpus": ("generate",),
    "cli": ("main",),
}


def span_names():
    return [f"{module}.{name}" for module, names in WRAPPED.items() for name in names]


class Tracer:
    """Spans in flat arrays, plus counters the wrappers derive from the
    arguments and results of a call."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.links: set = set()

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self.start), "counters": self.counters}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(out)


# --- counters taken at the layer boundary -------------------------------------


def _after_matrix_rank(tracer, args, result):
    mat = args[0]
    cells = len(mat) * (len(mat[0]) if mat else 0)
    tracer.count("homology.matrix_rank.cells", cells)
    tracer.counters["homology.matrix_rank.max_cells"] = max(
        tracer.counters.get("homology.matrix_rank.max_cells", 0), cells)


def _after_boundary_matrix(tracer, args, result):
    tracer.count("homology.boundary_matrix.cells", len(result) * (len(result[0]) if result else 0))


def _after_gale_facets(tracer, args, result):
    d, n = args[0], args[1]
    tracer.count("cyclic.gale_facets.subsets_tested", comb(n, d))
    tracer.count("cyclic.gale_facets.facets_returned", len(result.facets))


def _after_link(tracer, args, result):
    tracer.links.add(result.facets)
    tracer.counters["complexes.link.distinct"] = len(tracer.links)


AFTER = {
    "homology.matrix_rank": _after_matrix_rank,
    "homology.boundary_matrix": _after_boundary_matrix,
    "cyclic.gale_facets": _after_gale_facets,
    "complexes.SimplicialComplex.link": _after_link,
}


# --- installing the wrappers ---------------------------------------------------


def ubckit_modules():
    """Every module of the ubckit package except ``__main__``, imported."""
    import ubckit

    mods = [ubckit]
    for info in pkgutil.iter_modules(ubckit.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"ubckit.{info.name}"))
    return mods


def _bindings(modules, target):
    """(container, key, where) for each module global and each entry of a
    module-level dict that holds ``target``; a dict bound in two modules
    counts once."""
    found, seen = [], set()
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is target:
                found.append((space, key, f"{mod.__name__}.{key}"))
            elif isinstance(value, dict) and id(value) not in seen:
                seen.add(id(value))
                found.extend((value, k, f"{mod.__name__}.{key}[{k!r}]")
                             for k, v in list(value.items()) if v is target)
    return found


def _originals(modules):
    """Listed name -> (original object, class or None, attribute)."""
    by_name = {mod.__name__: mod for mod in modules}
    out = {}
    for module, names in WRAPPED.items():
        mod = by_name.get(f"ubckit.{module}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is not None:
                out[f"{module}.{name}"] = (fn, owner if owner_name else None, attr)
    return out


def install(tracer, modules=None):
    """Wrap every listed function in every binding.  Returns the undo list
    and the listed names ubckit no longer has."""
    modules = ubckit_modules() if modules is None else modules
    originals = _originals(modules)
    undo = []
    for span_name, (fn, cls, attr) in originals.items():
        wrapper = tracer.wrap(span_name, fn, AFTER.get(span_name))
        if cls is not None:
            undo.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
        for container, key, _ in _bindings(modules, fn):
            undo.append((container, key, fn))
            container[key] = wrapper
    missing = [name for name in span_names() if name not in originals]
    return undo, missing


def uninstall(undo):
    for container, key, fn in reversed(undo):
        if isinstance(container, dict):
            container[key] = fn
        else:
            setattr(container, key, fn)


def unwrapped_bindings(modules=None):
    """Listed functions still reachable unwrapped: as the attribute of their
    class, or under any name of any ubckit module (module dicts included)."""
    modules = ubckit_modules() if modules is None else modules
    bad = []
    for span_name, (fn, cls, attr) in _originals(modules).items():
        if getattr(fn, "__bench_traced__", False):
            fn = fn.__wrapped__
        elif cls is not None:
            bad.append(f"{span_name} (class attribute)")
        bad.extend(f"{span_name} bound unwrapped as {where}" for _, _, where in _bindings(modules, fn))
    return bad


# --- reading spans back ---------------------------------------------------------


def load(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("d", "d", "q", "q"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    start, end, parent, name = arrays
    return {"names": header["names"], "counters": header["counters"],
            "start": start, "end": end, "parent": parent, "name": name}


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the direct children are disjoint and lie
    inside their parent: their summed duration is the covered part."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _group(module, *names):
    return frozenset(f"{module}.{name}" for name in names)


RANK = "homology.matrix_rank"
BMAT = "homology.boundary_matrix"
BETTI = "homology.betti_numbers"
LINK = "complexes.SimplicialComplex.link"
BUILD = "complexes.SimplicialComplex.__init__"
FACES = "complexes.SimplicialComplex.faces"
GALE = "cyclic.gale_facets"
HYPOTHESES = "verify.check_ubc_hypotheses"
LOAD = "facetfile.load_complex"
CLASSIFIERS = _group("homology", *(n for n in WRAPPED["homology"]
                                   if n not in ("boundary_matrix", "matrix_rank", "betti_numbers")))
VERIFY = _group("verify", *WRAPPED["verify"])
TRANSFORMS = _group("vectors", *WRAPPED["vectors"])

# Groups whose covered time is reported: the spans of the group whose parent
# lies outside it, so that nested calls within a group count once.
COVERED = {name: frozenset({name}) for name in (RANK, BMAT, BUILD, FACES, GALE, HYPOTHESES, LOAD)}
COVERED["vectors.transforms"] = TRANSFORMS


class Totals:
    """Sums over the traced processes of one pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.covered_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.computed = 0

    def add(self, dump):
        names = dump["names"]
        start, end, parent, name = dump["start"], dump["end"], dump["parent"], dump["name"]
        own = self_times(start, end, parent)
        for i, nid in enumerate(name):
            key = names[nid]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + own[i]
        for label, group in COVERED.items():
            ids = {i for i, n in enumerate(names) if n in group}
            total = 0.0
            for i, nid in enumerate(name):
                if nid in ids and (parent[i] < 0 or name[parent[i]] not in ids):
                    total += end[i] - start[i]
            self.covered_s[label] = self.covered_s.get(label, 0.0) + total
        if BETTI in names and BMAT in names:
            betti, bmat = names.index(BETTI), names.index(BMAT)
            self.computed += len({parent[i] for i, nid in enumerate(name)
                                  if nid == bmat and parent[i] >= 0 and name[parent[i]] == betti})
        for key, value in dump["counters"].items():
            if key.endswith(".max_cells"):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def metrics(self):
        """Per-layer metric -> (value, unit).  Times are self times unless
        the name ends in ".s", which is the time the layer's spans cover."""
        calls = lambda *names: sum(self.calls.get(n, 0) for n in names)
        self_s = lambda names: sum(self.self_s.get(n, 0.0) for n in names)
        covered = lambda label: self.covered_s.get(label, 0.0)
        counter = lambda key: self.counters.get(key, 0)
        tested = counter("cyclic.gale_facets.subsets_tested")
        hit_ratio = counter("cyclic.gale_facets.facets_returned") / tested if tested else 0.0
        return {
            "homology.matrix_rank.calls": (calls(RANK), "count"),
            "homology.matrix_rank.s": (covered(RANK), "s"),
            "homology.matrix_rank.cells": (counter("homology.matrix_rank.cells"), "count"),
            "homology.matrix_rank.max_cells": (counter("homology.matrix_rank.max_cells"), "count"),
            "homology.boundary_matrix.calls": (calls(BMAT), "count"),
            "homology.boundary_matrix.s": (covered(BMAT), "s"),
            "homology.boundary_matrix.cells": (counter("homology.boundary_matrix.cells"), "count"),
            "homology.betti_numbers.calls": (calls(BETTI), "count"),
            "homology.betti_numbers.computed": (self.computed, "count"),
            "homology.classifiers.self_s": (self_s(CLASSIFIERS), "s"),
            "complexes.link.calls": (calls(LINK), "count"),
            "complexes.link.distinct": (counter("complexes.link.distinct"), "count"),
            "complexes.link.self_s": (self_s([LINK]), "s"),
            "complexes.build.calls": (calls(BUILD), "count"),
            "complexes.build.s": (covered(BUILD), "s"),
            "complexes.faces.calls": (calls(FACES), "count"),
            "complexes.faces.s": (covered(FACES), "s"),
            "cyclic.gale_facets.calls": (calls(GALE), "count"),
            "cyclic.gale_facets.s": (covered(GALE), "s"),
            "cyclic.gale_facets.subsets_tested": (tested, "count"),
            "cyclic.gale_facets.hit_ratio": (hit_ratio, "ratio"),
            "verify.hypotheses.s": (covered(HYPOTHESES), "s"),
            "verify.self_s": (self_s(VERIFY), "s"),
            "vectors.transforms.calls": (calls(*TRANSFORMS), "count"),
            "vectors.transforms.s": (covered("vectors.transforms"), "s"),
            "facetfile.load_complex.calls": (calls(LOAD), "count"),
            "facetfile.load_complex.s": (covered(LOAD), "s"),
            "cli.main.self_s": (self_s(["cli.main"]), "s"),
            "corpus.generate.self_s": (self_s(["corpus.generate"]), "s"),
        }


if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    _, missing = install(tracer)
    if missing:
        print(f"bench tracer: ubckit has no {', '.join(missing)}", file=sys.stderr)
    import ubckit.cli

    try:
        code = ubckit.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(Path(spans_file))
    raise SystemExit(code)

"""Write bench/reference.json from the ubckit in this checkout.

    python3 bench/make_reference.py

Runs every operation of every workload once, on seed 0, keeps the
label-independent part of each result, and refuses to write the file when
that disagrees with the closed forms in check.py or when gen's output is
not the benchmark's own Gale-evenness enumeration.  Run it only at a commit
whose outputs are known to be right: the benchmark treats it as the truth.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads
from check import REFERENCE, closed_form_problems, observe
from run import Child, expand


def main():
    root = Path.cwd()
    reference = {}
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=root / ".bench_work"))
    try:
        child = Child(root, work, time.perf_counter() + 3600)
        for workload in workloads.WORKLOADS:
            in_dir, out_dir = work / workload / "in", work / workload / "out"
            out_dir.mkdir(parents=True)
            workloads.write_inputs(workload, 0, in_dir)
            for op in workloads.operations(workload):
                _, code, _, stdout = child.run([sys.executable, "-m", "ubckit",
                                                *expand(op["args"], in_dir, out_dir)])
                rec = observe(op, code, stdout.decode(), out_dir)
                if op["args"][0] == "gen":
                    d, n = int(op["args"][2]), int(op["args"][3])
                    if rec.pop("facets") != [list(f) for f in workloads.cyclic(d, n)]:
                        sys.exit(f"{op['id']}: not the Gale-evenness facets")
                reference[op["id"]] = rec
    finally:
        shutil.rmtree(work)
    found = closed_form_problems(reference)
    if found:
        sys.exit("\n".join(found))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} reference records to {REFERENCE}")


if __name__ == "__main__":
    main()

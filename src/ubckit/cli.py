"""Command-line front end.

Subcommands: invariants, classify, verify, gen, sweep.  Exit codes: 0 for a
passing verification (and for plain queries), 1 when hypotheses hold but a
conclusion fails, 2 when hypotheses are not met, 64 for usage errors and
malformed input files, 70 for an internal error.

A well-formed command line (a command name and exactly its positionals, and
for gen at most a final -o/--output OUT) is read without argparse, whose
import and parser cost more than some commands compute; -h, usage errors
and every other form go through argparse, with unchanged text.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ._chains import betti_numbers  # invariants needs no link classifier
from .facetfile import FacetFileError, load_complex, render_facet_text
from .vectors import h_from_f, short_h_from_f

if TYPE_CHECKING:  # argparse loads only where build_parser runs
    import argparse

USAGE_ERROR = 64
INTERNAL_ERROR = 70  # EX_SOFTWARE in sysexits.h; 64 is EX_USAGE there
# the keys of verify.VERIFIERS, which verify and sweep import when they run
STATEMENTS = ("dehn-sommerville", "lemma-hh", "lower-bounds", "sphere-ubc", "ubc")


class _UsageError(Exception):
    pass


def _invariants_dict(name, sc) -> dict:
    f = sc.f_vector()
    out = {
        "name": name,
        "dimension": sc.dim,
        "pure": sc.is_pure,
        "f_vector": list(f.entries),
        "h_vector": list(h_from_f(f).entries),
    }
    out["short_h_vector"] = list(short_h_from_f(f).entries) if sc.is_pure else "not-applicable"
    out["betti"] = list(betti_numbers(sc).entries)
    out["partial_euler"] = [sc.chi_partial(i) for i in range(0, sc.dim + 1)]
    out["euler_characteristic"] = sc.euler_characteristic()
    return out


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _cmd_invariants(args) -> int:
    name, sc = load_complex(args.file)
    _print_json(_invariants_dict(name, sc))
    return 0


def _cmd_classify(args) -> int:
    from .homology import classify

    name, sc = load_complex(args.file)
    _print_json({"name": name, **classify(sc).to_json_dict()})
    return 0


def _cmd_verify(args) -> int:
    from .verify import VERIFIERS

    name, sc = load_complex(args.file)
    report = VERIFIERS[args.statement](sc)
    _print_json({"name": name, **report.to_json_dict()})
    return report.exit_code


def _cmd_gen(args) -> int:
    from .corpus import generate  # only gen needs the generators

    name, sc = generate(" ".join(args.spec))
    text = render_facet_text(name, sc)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise FacetFileError(f"cannot write {args.output}: {e.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def _internal(e: Exception) -> str:
    return f"internal error: {type(e).__name__}: {e}"


_SEVERITY = {"pass": 0, "hypotheses-not-met": 1, "fail": 2, "error": 3}


def _cmd_sweep(args) -> int:
    from .verify import EXIT_CODES, VERIFIERS

    directory = Path(args.directory)
    if not directory.is_dir():
        raise FacetFileError(f"{directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise FacetFileError(f"no .json facet files in {directory}")
    verifier = VERIFIERS[args.statement]
    counts = {"pass": 0, "fail": 0, "hypotheses-not-met": 0, "error": 0}
    width = max(len(f.name) for f in files)
    for path in files:
        try:
            _, sc = load_complex(path)
            outcome = verifier(sc).overall
        except ValueError as e:  # FacetFileError included
            outcome = "error"
            sys.stdout.write(f"{path.name:<{width}}  error: {e}\n")
        except Exception as e:  # one faulty file must not end the sweep
            outcome = "error"
            sys.stdout.write(f"{path.name:<{width}}  error: {_internal(e)}\n")
        else:
            sys.stdout.write(f"{path.name:<{width}}  {outcome}\n")
        counts[outcome] += 1
    summary = ", ".join(f"{counts[key]} {key}" for key in ("pass", "fail", "hypotheses-not-met", "error"))
    sys.stdout.write(f"# {args.statement}: {summary} ({len(files)} files)\n")
    worst = max(counts, key=lambda key: (_SEVERITY[key] if counts[key] else -1))
    return {**EXIT_CODES, "error": USAGE_ERROR}[worst] if counts[worst] else 0


# each command's function, help text and positionals, which build_parser
# declares with the keywords in _POSITIONALS; gen also takes -o/--output
_COMMANDS = {
    "invariants": (_cmd_invariants, "print f, h, short-h, Betti and skeleton Euler data", "file"),
    "classify": (_cmd_classify, "print the classification report", "file"),
    "verify": (_cmd_verify, "verify one statement on one complex", "statement", "file"),
    "gen": (_cmd_gen, "generate a named complex", "spec"),
    "sweep": (_cmd_sweep, "verify one statement on every .json file in a directory",
              "statement", "directory"),
}
_POSITIONALS = {
    "statement": {"choices": STATEMENTS},
    "spec": {"nargs": "+", "help": "e.g. cyclic 4 9 or 'suspension(torus-7)'"},
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    # --help shows the docstring up to its last paragraph, which is about parsing
    parser = _Parser(prog="ubckit", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, *names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(name, **_POSITIONALS.get(name, {}))
        if command == "gen":
            p.add_argument("-o", "--output", help="write to a file instead of stdout")
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace build_parser() gives a well-formed argv, or None.

    Well-formed: a command name, then exactly its positionals (for gen, one
    or more specs and at most a final -o/--output OUT), and apart from that
    option no token that starts with "-".  argparse reads every other argv.
    """
    command, *rest = argv or [""]
    if command not in _COMMANDS:
        return None
    func, _, *names = _COMMANDS[command]
    if command == "gen":
        output = None
        if len(rest) > 2 and rest[-2] in ("-o", "--output"):
            *rest, _, output = rest
        if not rest or (output or "").startswith("-"):
            return None
        values = {"spec": rest, "output": output}
    elif len(rest) != len(names) or (names[0] == "statement" and rest[0] not in STATEMENTS):
        return None
    else:
        values = dict(zip(names, rest))
    if any(token.startswith("-") for token in rest):
        return None
    return SimpleNamespace(command=command, **values, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except _UsageError as e:
            sys.stderr.write(f"ubckit: error: {e}\n")
            return USAGE_ERROR
    try:
        return args.func(args)
    except FacetFileError as e:
        sys.stderr.write(f"ubckit: {e}\n")
        return USAGE_ERROR
    except ValueError as e:
        sys.stderr.write(f"ubckit: error: {e}\n")
        return USAGE_ERROR
    except Exception as e:  # never let an internal fault read as exit 1 "fail"
        sys.stderr.write(f"ubckit: {_internal(e)}\n")
        return INTERNAL_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

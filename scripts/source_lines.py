"""Print the line counts of the ulrichcert package sources.

Two numbers for the ``.py`` files under ``src/ulrichcert``: all lines, and
code lines, which leave out blank lines, comment-only lines and the
docstrings of modules, classes and functions. The first line gives the
package totals; one line per module follows, in path order, so a change
shows where its lines moved.

Then one line per command shape that the benchmark and CI run: its exit
code, the package modules, besides ``cli.py``, that a fresh interpreter
running it loads, with their code lines, and the standard-library modules it
adds over an interpreter that has only started and imported what the probe
itself uses. A process without a bytecode cache compiles every package
module it loads, so this is the repeatable count of a cold command's import
work. Each line ends with the number of objects the garbage collector tracks
before ``ulrichcert`` is imported and once the command has returned: the
load that the collections of interpreter finalization would traverse, had
the process entry not frozen it. ``descend`` reads the refuted certificate
that ``certify --paper-defaults`` writes. Standard library only::

    python scripts/source_lines.py
"""
from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ulrichcert"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

# run in this order in one directory: certify writes the certificate descend reads
COMMANDS = (
    ("certify", "--paper-defaults", "--out", "cert.json"),
    ("nodes", "--paper-defaults"),
    ("nodes", "--paper-defaults", "--out", "nodes.json"),
    ("lattice", "theta-check"),
    ("lattice", "incidence"),
    ("lattice", "even-eights"),
    ("lattice", "horikawa"),
    ("descend", "cert.json"),
)
# the probe's own imports, then the module names a bare interpreter has
BARE = """import contextlib, gc, io, sys
print(*sys.modules)
"""
PROBE = """import contextlib, gc, io, sys
before = len(gc.get_objects())
import ulrichcert.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = ulrichcert.cli.main(sys.argv[1:])
print(status, before, len(gc.get_objects()))
print(*sys.modules)
for name, module in sys.modules.items():
    if name.startswith("ulrichcert"):
        print(module.__file__)
"""


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path):
    """(total lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def probe(script, argv, directory) -> list:
    """The stdout lines of ``script`` run with ``argv`` in a fresh interpreter
    in ``directory``, with the package on the path."""
    run = subprocess.run([sys.executable, "-c", script, *argv], cwd=directory, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
                         capture_output=True, text=True)
    return run.stdout.splitlines()


def loaded_modules(argv, directory, bare) -> tuple:
    """Exit code of ``argv`` run in a fresh interpreter in ``directory``, the
    package modules besides ``cli.py`` that it loads, in path order, the
    other modules it adds to the set ``bare``, sorted by name, and the
    gc-tracked object counts before the import and after the command."""
    counts, names, *files = probe(PROBE, argv, directory)
    status, before, at_exit = map(int, counts.split())
    modules = sorted(pathlib.Path(f).relative_to(SOURCE) for f in files)
    added = sorted(n for n in set(names.split()) - bare if n.partition(".")[0] != "ulrichcert")
    return status, [m for m in modules if m != pathlib.Path("cli.py")], added, (before, at_exit)


def main() -> None:
    counts = {path.relative_to(SOURCE): count(path) for path in sorted(SOURCE.rglob("*.py"))}
    total, code = (sum(column) for column in zip(*counts.values()))
    print(f"src/ulrichcert: {total} lines, {code} code lines")
    for module, (t, c) in counts.items():
        print(f"  {module}: {t} lines, {c} code lines")
    print("modules that each command loads besides cli.py, in a fresh interpreter:")
    with tempfile.TemporaryDirectory() as directory:
        bare = set(probe(BARE, (), directory)[0].split())
        for argv in COMMANDS:
            status, modules, added, (before, at_exit) = loaded_modules(argv, directory, bare)
            print(f"  {' '.join(argv)} (exit {status}): {len(modules)} modules, "
                  f"{sum(counts[m][1] for m in modules)} code lines: "
                  + " ".join(map(str, modules))
                  + f"; standard library +{len(added)}: " + " ".join(added)
                  + f"; gc-tracked objects {before} before import, {at_exit} at exit")


if __name__ == "__main__":
    main()

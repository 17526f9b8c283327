"""Print the line counts of the ulrichcert package sources, and what each
command shape loads.

Two numbers for the ``.py`` files under ``src/ulrichcert``: all lines, and
code lines, which leave out blank lines, comment-only lines and the
docstrings of modules, classes and functions. The first line gives the
package totals; one line per module follows, in path order, so a change
shows where its lines moved.

Then one line per shape of ``COMMANDS``: its exit code, the package modules
besides ``cli.py`` that a fresh interpreter running it loads, with their code
lines (a process without a bytecode cache compiles each, so this is the
repeatable count of a cold command's import work), the bytecode those
modules and ``cli.py`` compile to (the summed ``co_code`` length of every
code object that ``compile()`` makes of them, under a file name that does
not depend on the checkout, so it is fixed for one Python version), the
standard-library modules it adds to those the interpreter had once started,
and the objects the garbage collector tracks before ``ulrichcert`` is
imported and once the command has returned, which the collections of
interpreter finalization would traverse had the process entry not frozen
them. Standard library only::

    python scripts/source_lines.py

The tests and CI use this file: ``COMMANDS`` is the one list of command
shapes, each argv with its exit code, and ``loaded_modules`` the one probe of
what a fresh interpreter loads, through which the tests assert the modules
each shape needs and must not load.
"""
from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import types
from collections import namedtuple

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ulrichcert"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

# name -> (argv, exit code); run in this order in one directory: certify
# writes the certificate that descend reads
COMMANDS = {
    "certify": (("certify", "--paper-defaults", "--out", "cert.json"), 7),
    "nodes": (("nodes", "--paper-defaults"), 0),
    "nodes-out": (("nodes", "--paper-defaults", "--out", "nodes.json"), 0),
    "theta-check": (("lattice", "theta-check"), 0),
    "incidence": (("lattice", "incidence"), 0),
    "even-eights": (("lattice", "even-eights"), 0),
    "horikawa": (("lattice", "horikawa"), 0),
    "descend-refuted": (("descend", "cert.json"), 8),
    "help": (("--help",), 0),
    "usage-error": (("lattice", "nope"), 2),
}
# argv: the module to import, then the command line to run, if any
PROBE = """import contextlib, gc, io, sys
objects, before = len(gc.get_objects()), set(sys.modules)
__import__(sys.argv[1])
status = None
if sys.argv[2:]:
    import ulrichcert.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = ulrichcert.cli.main(sys.argv[2:])
added = set(sys.modules) - before
print(status, objects, len(gc.get_objects()))
print(*added)
print(*(sys.modules[n].__file__ for n in added if n.partition(".")[0] == "ulrichcert"), sep="\\n")
"""
# status: the exit code, None where no command ran; names: the modules added
# to sys.modules; files: the package's, as sorted paths under SOURCE;
# objects: gc-tracked objects before the import and at the end
Loaded = namedtuple("Loaded", "status names files objects")


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


def bytecode_size(path: pathlib.Path) -> int:
    """Summed ``co_code`` length of every code object that ``compile()``
    makes of one package source, compiled as ``ulrichcert/<path>`` and
    without this script's future flags."""
    name = pathlib.PurePosixPath("ulrichcert", *path.relative_to(SOURCE).parts)
    pending = [compile(path.read_text(), str(name), "exec", dont_inherit=True)]
    size = 0
    while pending:
        code = pending.pop()
        size += len(code.co_code)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return size


def loaded_modules(argv=(), directory=None, module="ulrichcert.cli") -> Loaded:
    """What a fresh interpreter in ``directory`` loads by importing ``module``
    and then, unless ``argv`` is empty, running it through ``cli.main`` with
    its output discarded."""
    run = subprocess.run([sys.executable, "-c", PROBE, module, *argv], cwd=directory,
                         env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
                         capture_output=True, text=True, timeout=120)
    if run.returncode:
        raise RuntimeError(f"probe of {module} {' '.join(argv)} failed:\n{run.stderr}")
    counts, names, *files = run.stdout.splitlines()
    status, before, at_exit = counts.split()
    return Loaded(None if status == "None" else int(status), set(names.split()),
                  sorted(pathlib.Path(f).relative_to(SOURCE) for f in files),
                  (int(before), int(at_exit)))


def main() -> None:
    counts = {path.relative_to(SOURCE): count(path) for path in sorted(SOURCE.rglob("*.py"))}
    total, code = (sum(column) for column in zip(*counts.values()))
    print(f"src/ulrichcert: {total} lines, {code} code lines")
    for module, (t, c) in counts.items():
        print(f"  {module}: {t} lines, {c} code lines")
    print("modules that each command loads besides cli.py, in a fresh interpreter:")
    with tempfile.TemporaryDirectory() as directory:
        for argv, _ in COMMANDS.values():
            loaded = loaded_modules(argv, directory)
            modules = [m for m in loaded.files if m != pathlib.Path("cli.py")]
            added = sorted(n for n in loaded.names if n.partition(".")[0] != "ulrichcert")
            print(f"  {' '.join(argv)} (exit {loaded.status}): {len(modules)} modules, "
                  f"{sum(counts[m][1] for m in modules)} code lines: "
                  + " ".join(map(str, modules))
                  + f"; bytecode {sum(bytecode_size(SOURCE / m) for m in loaded.files)} bytes"
                  + f" with cli.py; standard library +{len(added)}: " + " ".join(added)
                  + "; gc-tracked objects {} before import, {} at exit".format(*loaded.objects))


if __name__ == "__main__":
    main()

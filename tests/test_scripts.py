import os
import pathlib
import re
import subprocess
import sys

import source_lines

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_sweep_scripts_print_their_summaries():
    recipes = run_script("invariant_recipes.py")
    assert recipes.returncode == 0, recipes.stderr
    assert "24 invariant recipes, 0 with both vanishings" in recipes.stdout.splitlines()

    sweep = run_script("even_eight_sweep.py")
    assert sweep.returncode == 0, sweep.stderr
    lines = sweep.stdout.splitlines()
    assert "30 even eights among 12870 eight-subsets" in lines
    assert "closed under complementation: True" in lines


def test_even_eight_sweep_output_matches_golden():
    sweep = run_script("even_eight_sweep.py")
    assert sweep.returncode == 0, sweep.stderr
    golden = (ROOT / "tests" / "golden" / "even_eight_sweep.txt").read_text()
    assert sweep.stdout == golden


def test_invariant_recipes_output_matches_golden():
    recipes = run_script("invariant_recipes.py")
    assert recipes.returncode == 0, recipes.stderr
    golden = (ROOT / "tests" / "golden" / "invariant_recipes.txt").read_text()
    assert recipes.stdout == golden


def co_code_length(code) -> int:
    """``co_code`` length of a code object and of every one nested in it."""
    return len(code.co_code) + sum(co_code_length(const) for const in code.co_consts
                                   if isinstance(const, type(code)))


def test_source_lines_skips_blanks_comments_and_docstrings(tmp_path):
    """What the script prints and counts; the modules each command shape
    loads are the contract of ``tests/test_cli.py``, run through the same
    probe."""
    path = tmp_path / "sample.py"
    path.write_text('"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing\n\n\n'
                    'def f():\n    """One line."""\n    return "not a docstring"\n')
    assert source_lines.count(path) == (10, 3)

    run = run_script("source_lines.py")
    assert run.returncode == 0, run.stderr
    first, *lines = run.stdout.splitlines()
    source = ROOT / "src" / "ulrichcert"
    code = {path.relative_to(source): source_lines.count(path)
            for path in sorted(source.rglob("*.py"))}
    assert first == (f"src/ulrichcert: {sum(t for t, _ in code.values())} lines, "
                     f"{sum(c for _, c in code.values())} code lines")
    assert pathlib.Path("cli.py") in code
    modules, commands = lines[:len(code)], lines[len(code) + 1:]
    assert modules == [f"  {module}: {t} lines, {c} code lines" for module, (t, c) in code.items()]
    assert lines[len(code)] == ("modules that each command loads besides cli.py, "
                                "in a fresh interpreter:")
    # the bytecode of each module, which neither the file name it is compiled
    # under nor this file's future flags change
    size = {}
    for module in code:
        text = (source / module).read_text()
        size[module] = co_code_length(compile(text, f"ulrichcert/{module}", "exec",
                                              dont_inherit=True))
        assert size[module] == co_code_length(compile(text, str(source / module), "exec"))
    printed = {}
    for line in commands:
        (shape, status, count, code_lines, names, bytecode, number, added, before,
         at_exit) = re.fullmatch(
            r"  (.+) \(exit (\d+)\): (\d+) modules, (\d+) code lines: (.*); "
            r"bytecode (\d+) bytes with cli.py; standard library \+(\d+): (.*); "
            r"gc-tracked objects (\d+) before import, (\d+) at exit", line).groups()
        printed[shape] = int(status)
        loaded = [pathlib.Path(name) for name in names.split()]
        assert pathlib.Path("cli.py") not in loaded and loaded == sorted(loaded), line
        assert (int(count), int(code_lines)) == (len(loaded), sum(code[m][1] for m in loaded))
        assert int(bytecode) == sum(size[m] for m in loaded) + size[pathlib.Path("cli.py")]
        assert int(number) == len(set(added.split())), line
        assert 0 < int(before) < int(at_exit), line
    assert printed == {" ".join(argv): status for argv, status in source_lines.COMMANDS.values()}

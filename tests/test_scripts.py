import importlib.util
import os
import pathlib
import re
import subprocess
import sys

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


def test_source_lines_skips_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("source_lines",
                                                  ROOT / "scripts" / "source_lines.py")
    source_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(source_lines)
    path = tmp_path / "sample.py"
    path.write_text('"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing\n\n\n'
                    'def f():\n    """One line."""\n    return "not a docstring"\n')
    assert source_lines.count(path) == (10, 3)

    run = run_script("source_lines.py")
    assert run.returncode == 0, run.stderr
    first, *lines = run.stdout.splitlines()
    source = ROOT / "src" / "ulrichcert"
    counts = [(path.relative_to(source), source_lines.count(path))
              for path in sorted(source.rglob("*.py"))]
    assert first == (f"src/ulrichcert: {sum(t for _, (t, _) in counts)} lines, "
                     f"{sum(c for _, (_, c) in counts)} code lines")
    modules, commands = lines[:len(counts)], lines[len(counts) + 1:]
    assert modules == [f"  {module}: {t} lines, {c} code lines" for module, (t, c) in counts]
    assert "  cli.py" in {line.split(":")[0] for line in modules}
    assert lines[len(counts)] == ("modules that each command loads besides cli.py, "
                                  "in a fresh interpreter:")
    assert [line.split(" (exit")[0].strip() for line in commands] == [
        " ".join(argv) for argv in source_lines.COMMANDS]
    code = dict(counts)
    read = sum(code[pathlib.Path(name)][1] for name in ("__init__.py", "documents.py", "labels.py"))
    package = commands[-1].split("; ")[0]
    assert package == (f"  descend cert.json (exit 8): 3 modules, {read} code lines: "
                       "__init__.py documents.py labels.py")
    added = {}
    for line, argv in zip(commands, source_lines.COMMANDS):
        _, stdlib, objects = line.split("; ")
        count, names = stdlib.removeprefix("standard library +").split(": ")
        added[argv[:2]] = set(names.split())
        assert int(count) == len(added[argv[:2]])
        before, at_exit = map(int, re.fullmatch(
            r"gc-tracked objects (\d+) before import, (\d+) at exit", objects).groups())
        assert 0 < before < at_exit, line
        assert not added[argv[:2]] & {"argparse", "gettext", "locale", "datetime"}, line
    assert {"json", "hashlib"} <= added[("descend", "cert.json")]
    assert {"fractions", "json", "hashlib"} <= added[("certify", "--paper-defaults")]
    for check in ("theta-check", "incidence", "even-eights", "horikawa"):
        assert not added[("lattice", check)] & {"fractions", "decimal", "json"}
    assert not added[("descend", "cert.json")] & {"fractions", "decimal"}

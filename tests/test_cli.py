import datetime
from fractions import Fraction
import functools
import gc
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ulrichcert
from ulrichcert import cli, cohomology, kummer
from ulrichcert.cohomology import descend_to_enriques, write_certificate
from ulrichcert.fields import QQ, PrimeField
from ulrichcert.labels import DEFAULT_PRIME, DEFAULT_ROOTS, DEFAULT_TWELVE, TWELVE_NODES, node_token

import source_lines

DEFAULT_LABELS = "E0, E16, E26, E36, E46, E56, E12, E13, E14, E15, E24, E35"
SWAPPED_LABELS = "E0, E16, E26, E36, E46, E56, E12, E13, E14, E15, E25, E35"
REMARK_LABELS = "E13, E14, E15, E16, E23, E24, E25, E26"


def write_config(path, prime=32003, roots="1, -1, 2, -2, 3, -3",
                 recipe="twelve-nodes", labels=DEFAULT_LABELS, out=None,
                 quartic="corpus:kummer_quartic"):
    lines = [
        "[surface]",
        f"prime = {prime}",
        f"roots = {roots}",
        f"quartic = {quartic}",
        "",
        "[bundle]",
        f"recipe = {recipe}",
        f"labels = {labels}",
    ]
    if out:
        lines += ["", "[output]", f"path = {out}"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def readme_sample():
    """The INI block of the README, verbatim."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"^```ini\n(.*?)^```$", readme, re.M | re.S).group(1)


BUNDLED_QUARTIC = "".join(
    (pathlib.Path(kummer.__file__).resolve().parent / "corpus" / "kummer_quartic.txt")
    .read_text().split())


def test_nodes_paper_defaults(capsys):
    assert cli.main(["nodes", "--paper-defaults"]) == cli.EXIT_OK
    output = capsys.readouterr().out
    assert "(1:1:-2:-44)" in output
    assert "(1:2:-3:-42)" in output
    assert "(1:0:-4:-65)" in output
    assert "(1:1:-6:-84)" in output
    assert "(0:0:0:1)" in output
    assert "codim, degree) = (3, 16)" in output


def test_nodes_requires_some_config(capsys):
    assert cli.main(["nodes"]) == cli.EXIT_CONFIG


def test_nodes_json_output(tmp_path, capsys):
    out = tmp_path / "nodes.json"
    assert cli.main(["nodes", "--paper-defaults", "--out", str(out)]) == cli.EXIT_OK
    body = json.loads(out.read_text())
    assert len(body["nodes"]) == 16
    by_label = {row["label"]: row["coordinates"] for row in body["nodes"]}
    assert by_label["E23"] == ["1", "1", "-2", "-44"]
    assert body["verification"]["passed"] is True


def test_nodes_mod_seven_all_distinct(capsys):
    # the sixteen points remain distinct after reduction mod 7
    assert cli.main(["nodes", "--paper-defaults", "--prime", "7"]) == cli.EXIT_OK
    # but not mod 5, and the FAIL line names the colliding pair
    assert cli.main(["nodes", "--paper-defaults", "--prime", "5"]) == cli.EXIT_NODES
    assert capsys.readouterr().out.splitlines()[-1] == (
        "sixteen-nodes check: FAIL, singular locus (codim, degree) = (2, 2); "
        "E14 and E15 coincide mod 5")


def test_nodes_bad_roots_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", roots="1, 1, 2, -2, 3, -3")
    assert cli.main(["nodes", "--config", cfg]) == cli.EXIT_CONFIG


def test_nodes_zero_denominator_root_is_config_error(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("[surface]\nprime = 32003\nroots = 1/0, -1, 2, -2, 3, -3\n")
    assert cli.main(["nodes", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "configuration error" in err and "1/0" in err


@pytest.mark.parametrize("text, message", [
    ("prime = 7\n", "malformed config file"),
    ("[surface]\nprime = 7\nprime = 11\n", "malformed config file"),
    ("[surface]\nprime = 32003.0\n", "invalid prime '32003.0'"),
    ("[surface]\nquartic = inline:X^4++Y^4\n", "cannot parse polynomial near '++Y^4'"),
    ("[surface]\nquartic = inline:X^4+\n", "trailing garbage in polynomial: '+'"),
    ("[surface]\nroots = 1/32003, -1, 2, -2, 3, -3\n", "curve degenerates in GF(32003)"),
    ("[surface]\nprime = \u0663\u0662\u0660\u0660\u0663\n",
     "invalid prime '\u0663\u0662\u0660\u0660\u0663'"),
    ("[surface]\nprime = 32_003\n", "invalid prime '32_003'"),
    ("[surface]\nroots = \u0661, -1, 2, -2, 3, -3\n", "invalid root '\u0661'"),
    ("[surface]\nroots = 1, %(x)s\n", "invalid root '%(x)s'"),
], ids=["no-section-header", "duplicate-option", "non-integer-prime", "doubled-sign",
        "trailing-sign", "root-with-denominator-p", "arabic-indic-prime", "underscored-prime",
        "arabic-indic-root", "interpolation-root"])
def test_nodes_malformed_ini_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli.main(["nodes", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


def test_config_values_are_read_literally(tmp_path, capsys):
    """A '%' once started configparser's interpolation, so this path ended
    in a traceback and exit 1 from both commands."""
    out = tmp_path / "a%b.json"
    cfg = write_config(tmp_path / "c.cfg", out=str(out))
    assert cli.main(["nodes", "--config", cfg]) == cli.EXIT_OK
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_EFFECTIVITY
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["body"]["verdict"] == "refuted"


@pytest.mark.parametrize("labels, message", [
    ("E0, E12", "needs exactly 12 labels, got 2"),
    ("E99", "bad node token 'E99'"),
    ("E3\u00b2", "bad node token 'E3\u00b2'"),
    (DEFAULT_LABELS.replace("E35", "E\u0663\u0665"), "bad node token 'E\u0663\u0665'"),
], ids=["label-count", "bad-token", "superscript-digit", "arabic-indic-digits"])
def test_nodes_ignores_malformed_bundle_that_certify_rejects(tmp_path, capsys, labels,
                                                             message):
    cfg = write_config(tmp_path / "c.cfg", labels=labels)
    assert cli.main(["nodes", "--config", cfg]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "(1:1:-2:-44)" in captured.out and "(3, 16)" in captured.out
    assert captured.err == ""
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("quartic, degrees", [
    ("inline:X^4+Y", "1, 4"),
    ("inline:X^5+Y^5+Z^5+W^5", "5"),
    ("inline:0", "none"),
], ids=["mixed-degrees", "quintic", "zero"])
def test_config_quartic_that_is_not_a_quartic_rejected(tmp_path, capsys, quartic, degrees):
    out = tmp_path / "o.json"
    cfg = write_config(tmp_path / "c.cfg", quartic=quartic, out=str(out))
    for command in ("nodes", "certify"):
        assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"not a nonzero form of degree 4 (term degrees found: {degrees})" in captured.err
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("prime", ["\u0667", "32_003", " 7.0"])
def test_prime_flag_reads_ascii_digits_only(capsys, prime):
    """--prime once went through int(), which reads other scripts' digits and
    underscores, so \u0667 ran as 7 and 32_003 as 32003."""
    assert cli.main(["nodes", "--paper-defaults", "--prime", prime]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: invalid prime {prime.strip()!r}" in captured.err


def test_nodes_composite_prime_rejected(capsys):
    assert cli.main(["nodes", "--paper-defaults", "--prime", "32004"]) == cli.EXIT_CONFIG


def test_nodes_prime_beyond_primality_bound_rejected(capsys):
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to bases 2..37
    psi_12 = "318665857834031151167461"
    assert cli.main(["nodes", "--paper-defaults", "--prime", psi_12]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "sixteen-nodes check" not in captured.out
    assert psi_12 in captured.err and "Traceback" not in captured.err


def test_nodes_conflicting_config_flags(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    assert cli.main(["nodes", "--config", cfg, "--paper-defaults"]) == cli.EXIT_CONFIG


def test_corpus_name_outside_corpus_directory_is_config_error(tmp_path, capsys):
    # a readable quartic outside the corpus directory, which must stay unread
    corpus = pathlib.Path(kummer.__file__).resolve().parent / "corpus"
    (tmp_path / "evil.txt").write_text((corpus / "kummer_quartic.txt").read_text())
    relative = os.path.relpath(tmp_path / "evil", corpus)
    for name in (relative, str(tmp_path / "evil")):
        path = tmp_path / "c.cfg"
        path.write_text(f"[surface]\nquartic = corpus:{name}\n")
        assert cli.main(["nodes", "--config", str(path)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "sixteen-nodes check" not in captured.out
        assert "not a bare file name" in captured.err


def test_certify_out_in_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "cert.json"
    assert cli.main(["certify", "--paper-defaults", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(str(out)) in err and ".tmp" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_nodes_out_naming_a_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "adir"
    out.mkdir()
    assert cli.main(["nodes", "--paper-defaults", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(str(out)) in err and ".tmp" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_certify_paper_defaults_refuted_effectivity(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = cli.main(["certify", "--paper-defaults", "--out", str(out)])
    assert code == cli.EXIT_EFFECTIVITY
    document = json.loads(out.read_text())
    assert document["body"]["verdict"] == "refuted"
    assert document["body"]["refutation"]["reason"] == "effectivity"


@pytest.mark.usefixtures("certified")
def test_certify_and_descend_along_the_certified_path(tmp_path, capsys):
    """With the quadric check stubbed to pass, the chain ends in a certified
    verdict, and descend halves the recorded intersection numbers."""
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--paper-defaults", "--out", str(out)]) == cli.EXIT_OK
    assert "verdict: certified" in capsys.readouterr().out
    assert json.loads(out.read_text())["body"]["refutation"] is None
    assert cli.main(["descend", str(out)]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "H.H: 8 on the cover -> 4" in stdout
    assert "M.M: 12 on the cover -> 6" in stdout


def test_certify_bodies_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    cli.main(["certify", "--paper-defaults", "--out", str(out_a)])
    cli.main(["certify", "--paper-defaults", "--out", str(out_b)])
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    assert json.dumps(doc_a["body"], sort_keys=True) == \
        json.dumps(doc_b["body"], sort_keys=True)
    assert doc_a["digest"] == doc_b["digest"]


def test_certify_swapped_recipe_invariance_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", labels=SWAPPED_LABELS,
                       out=str(tmp_path / "cert.json"))
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_INVARIANCE


def test_certify_remark_recipe_even_eight_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", recipe="half-even-eight",
                       labels=REMARK_LABELS, out=str(tmp_path / "cert.json"))
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_EVEN_EIGHT


def test_certify_eleven_labels_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg",
                       labels=DEFAULT_LABELS.rsplit(",", 1)[0])
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_CONFIG


def test_lattice_subcommands(capsys):
    assert cli.main(["lattice", "theta-check"]) == cli.EXIT_OK
    assert cli.main(["lattice", "incidence"]) == cli.EXIT_OK
    assert cli.main(["lattice", "even-eights"]) == cli.EXIT_OK
    assert cli.main(["lattice", "horikawa"]) == cli.EXIT_OK
    output = capsys.readouterr().out
    assert "positive eight-subsets: 30 of 12870" in output
    assert "determinant: -1024" in output
    assert "signature: (1, 9)" in output


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["bogus"], "unknown command 'bogus'"),
    (["certify", "--paper-defaults", "--bogus", "x"], "unknown flag '--bogus' for certify"),
    (["certify", "--paper"], "unknown flag '--paper' for certify"),
    (["lattice", "horikawa", "--out", "x"], "unknown flag '--out' for lattice"),
    (["certify", "--paper-defaults", "--out"], "flag --out needs a value"),
    (["nodes", "--config", "--paper-defaults"], "flag --config needs a value"),
    (["nodes", "--paper-defaults", "--prime", "-7"], "flag --prime needs a value"),
    (["nodes", "--paper-defaults=yes"], "flag --paper-defaults takes no value"),
    (["lattice", "nope"], "unknown lattice check 'nope'"),
    (["lattice"], "lattice takes 1 positional argument(s) (check), got 0"),
    (["lattice", "horikawa", "incidence"],
     "lattice takes 1 positional argument(s) (check), got 2"),
    (["descend"], "descend takes 1 positional argument(s) (certificate), got 0"),
    (["nodes", "--paper-defaults", "extra"], "nodes takes 0 positional argument(s) (none), got 1"),
    (["certify", "--paper-defaults", "--out", ""], "flag --out needs a value"),
    (["certify", "--paper-defaults", "--out="], "flag --out needs a value"),
    (["nodes", "--paper-defaults", "--out", ""], "flag --out needs a value"),
    (["descend", "cert.json", "--out", ""], "flag --out needs a value"),
    (["nodes", "--config", ""], "flag --config needs a value"),
    (["certify", "--paper-defaults", "--out", " "], "flag --out needs a value"),
    (["certify", "--paper-defaults", "--out= "], "flag --out needs a value"),
    (["nodes", "--config", " "], "flag --config needs a value"),
    (["descend", "C", "--out", " "], "flag --out needs a value"),
], ids=["no-command", "unknown-command", "unknown-flag", "abbreviated-flag",
        "flag-of-another-command", "flag-without-value", "flag-followed-by-flag",
        "dash-value", "switch-with-value", "unknown-lattice-check", "missing-positional",
        "extra-positional", "missing-certificate", "positional-for-nodes", "empty-value",
        "empty-equals-value", "empty-nodes-out", "empty-descend-out", "empty-config",
        "blank-value", "blank-equals-value", "blank-config", "blank-descend-out"])
def test_usage_errors_return_exit_two_with_usage_on_stderr(tmp_path, monkeypatch, capsys, argv,
                                                          message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(cli.USAGE + "\n")
    assert f"ulrichcert: error: {message}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["certify", "-h"],
                                  ["descend", "--help"], ["lattice", "--help"],
                                  ["nodes", "--paper-defaults", "--help"]])
def test_help_prints_the_usage_and_returns_zero(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == (cli.USAGE + "\n", "")


def test_usage_names_every_command_flag_and_lattice_check():
    for command, (positionals, valued, switches) in cli.COMMANDS.items():
        assert f"ulrichcert {command} " in cli.USAGE
        assert all(flag in cli.USAGE for flag in valued + switches)
    assert all(check in cli.USAGE for check in cli.LATTICE_CHECKS)


def test_flags_take_an_equals_value_before_or_after_positionals(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", f"--out={out}", "--paper-defaults"]) == cli.EXIT_EFFECTIVITY
    assert json.loads(out.read_text())["body"]["verdict"] == "refuted"
    capsys.readouterr()
    assert cli.main(["descend", "--out", str(tmp_path / "r.json"), str(out)]) == \
        cli.EXIT_UNCERTIFIED
    assert "certificate verdict is 'refuted'" in capsys.readouterr().err
    # a repeated flag keeps its last value: prime 5 fails the node check, 7 passes
    assert cli.main(["nodes", "--paper-defaults", "--prime", "5", "--prime=7"]) == cli.EXIT_OK


def test_descend_takes_out_before_the_certificate(tmp_path, capsys, certified_path):
    out = tmp_path / "report.json"
    assert cli.main(["descend", "--out", str(out), str(certified_path)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["body"]["h0_polarization"] == 3


def test_handlers_are_looked_up_when_main_runs(monkeypatch):
    """A wrapper installed on the module after import is the one that runs,
    and a lattice check's arguments carry ``.check``."""
    seen = []
    monkeypatch.setattr(cli, "_cmd_lattice", lambda args: seen.append(args.check) or 0)
    assert cli.main(["lattice", "horikawa"]) == cli.EXIT_OK
    assert seen == ["horikawa"]


@pytest.fixture
def certified_path(tmp_path, certified):
    """The stub-certified reference certificate, written to a file."""
    path = tmp_path / "certified.json"
    write_certificate(path, certified)
    return path


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_honour_the_umask(tmp_path, capsys, certified_path, umask, mode):
    previous = os.umask(umask)
    try:
        cli.main(["certify", "--paper-defaults", "--out", str(tmp_path / "cert.json")])
        assert cli.main(["nodes", "--paper-defaults", "--out", str(tmp_path / "nodes.json")]) == 0
        assert cli.main(["descend", str(certified_path),
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        os.umask(previous)
    for name in ("cert.json", "nodes.json", "report.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_descend_on_certified_certificate(tmp_path, capsys, certified_path):
    out = tmp_path / "report.json"
    assert cli.main(["descend", str(certified_path), "--out", str(out)]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "8 on the cover -> 4 on the quotient" in stdout
    assert "Ulrich" in stdout
    report = json.loads(out.read_text())
    assert report["body"]["h0_polarization"] == 3
    assert report["body"]["plane_cover_degree"] == 4
    names = [c["name"] for c in report["body"]["classes"]]
    assert names == ["H_Y", "N", "N+K_Y"]


# canonical SHA-256 of the report body that descend writes for the GF(32003)
# reference run
REPORT_BODY_DIGEST = "725f42ea27b61adc8694d57b080569ffeb1bf67a363b6ae8f5effaeb4d1753a4"


def test_descend_writes_the_report_it_returns(tmp_path, capsys, certified, certified_path):
    out = tmp_path / "report.json"
    assert cli.main(["descend", str(certified_path), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["body"] == descend_to_enriques(certified)


def test_descend_report_body_digest(tmp_path, capsys, certified_path):
    out = tmp_path / "report.json"
    assert cli.main(["descend", str(certified_path), "--out", str(out)]) == cli.EXIT_OK
    canonical = json.dumps(json.loads(out.read_text())["body"], sort_keys=True,
                           separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == REPORT_BODY_DIGEST


def test_descend_out_in_missing_directory_is_a_configuration_error(tmp_path, capsys,
                                                                   certified_path):
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["descend", str(certified_path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert repr(str(out)) in capsys.readouterr().err


def test_descend_on_refuted_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    cli.main(["certify", "--paper-defaults", "--out", str(out)])
    assert cli.main(["descend", str(out)]) == cli.EXIT_UNCERTIFIED


def test_nodes_leaves_the_configured_certificate_alone(tmp_path, capsys):
    """A configuration's ``[output] path`` names the certificate: ``nodes``
    with the same configuration writes nothing there, so ``descend`` still
    reads the refuted certificate."""
    cert = tmp_path / "cert.json"
    cfg = write_config(tmp_path / "run.cfg", out=str(cert))
    assert cli.main(["certify", "--config", cfg]) == cli.EXIT_EFFECTIVITY
    written = cert.read_bytes()
    assert cli.main(["nodes", "--config", cfg]) == cli.EXIT_OK
    assert cert.read_bytes() == written
    assert cli.main(["descend", str(cert)]) == cli.EXIT_UNCERTIFIED


def test_descend_on_missing_file(tmp_path, capsys):
    """A certificate path that is missing, or that names a directory, exits 8."""
    assert cli.main(["descend", str(tmp_path / "nope.json")]) == cli.EXIT_UNCERTIFIED
    assert cli.main(["descend", str(tmp_path)]) == cli.EXIT_UNCERTIFIED
    assert f"certificate file {str(tmp_path)!r} cannot be read: " in capsys.readouterr().err


def test_descend_on_tampered_certificate(tmp_path, capsys, certified_path):
    document = json.loads(certified_path.read_text())
    document["body"]["parameters"]["s"] = 5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(document))
    assert cli.main(["descend", str(bad)]) == cli.EXIT_INTEGRITY


def test_config_file_round_trip(tmp_path):
    run = cli.load_config(write_config(tmp_path / "c.cfg", out="somewhere.json"))
    assert set(run) == set(cli.INPUTS)
    assert run["prime"] == 32003
    assert run["recipe"] == "twelve-nodes"
    assert len(run["labels"]) == 12
    assert run["path"] == "somewhere.json"
    curve, quartic = kummer.read_surface(run["prime"], run["roots"], run["quartic"])
    assert curve == kummer.default_curve() and quartic.total_degree() == 4


def test_run_inputs_are_read_as_defaults_then_the_file_then_the_flags(tmp_path):
    """One table reads every input of a run: a key the file leaves out keeps
    its default, and --prime and --out override the file; a flag's text is
    read as given, so --out keeps its spaces."""
    defaults = {key: default for key, (_, _, default) in cli.INPUTS.items()}
    assert defaults == {"prime": DEFAULT_PRIME, "roots": DEFAULT_ROOTS,
                        "quartic": "corpus:kummer_quartic", "recipe": TWELVE_NODES,
                        "labels": tuple(map(node_token, DEFAULT_TWELVE)), "path": None}
    assert cli._resolve_config(cli.parse_args(["nodes", "--paper-defaults"])) == defaults
    path = tmp_path / "c.cfg"
    path.write_text("[surface]\nprime = 7\n\n[bundle]\nlabels = E0 ,E12\n\n[extra]\nroots = 1\n")
    assert cli.load_config(str(path)) == {"prime": 7, "labels": ("E0", "E12")}
    args = cli.parse_args(["nodes", "--config", str(path), "--prime", " 11", "--out", " o.json"])
    assert cli._resolve_config(args) == dict(defaults, prime=11, labels=("E0", "E12"),
                                             path=" o.json")


def test_readme_sample_config_certifies_like_paper_defaults(tmp_path, capsys):
    """The README's INI block, read verbatim: its ``; or ...`` comments once
    became part of the corpus name and the recipe, so the run exited 2."""
    sample = readme_sample()
    assert "; or inline:" in sample
    cfg = tmp_path / "sample.cfg"
    cfg.write_text(sample)
    bodies = []
    for flags in (["--config", str(cfg)], ["--paper-defaults"]):
        out = tmp_path / f"{len(bodies)}.json"
        assert cli.main(["certify", *flags, "--out", str(out)]) == cli.EXIT_EFFECTIVITY
        bodies.append(json.loads(out.read_text())["body"])
    assert bodies[0] == bodies[1]
    assert cli.main(["nodes", "--config", str(cfg)]) == cli.EXIT_OK


@pytest.mark.parametrize("config, exit_code", [
    (None, cli.EXIT_EFFECTIVITY),
    ({"quartic": "inline:" + BUNDLED_QUARTIC}, cli.EXIT_EFFECTIVITY),
    ({"roots": "3/2, 2, 3, 4, 5, 6"}, cli.EXIT_NODES),
    ({"recipe": "half-even-eight", "labels": REMARK_LABELS}, cli.EXIT_EVEN_EIGHT),
], ids=["readme-sample", "inline-quartic", "fractional-roots", "half-even-eight"])
def test_descend_rebuilds_each_input_form_as_certify_read_it(tmp_path, capsys, config,
                                                             exit_code):
    """``descend`` concludes only on a body that its rebuild reproduces, so
    the body that ``certify --config`` writes must be the one the rebuild
    makes of its inputs, whatever form the configuration gave them in."""
    path = tmp_path / "c.cfg"
    if config is None:
        path.write_text(readme_sample())
    else:
        write_config(path, **config)
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == exit_code
    body = json.loads(out.read_text())["body"]
    assert cohomology.certificate_body(cohomology._rebuild(body)) == body


def test_unreadable_config_rejected(tmp_path):
    with pytest.raises(ValueError):
        cli.load_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("command, data, message", [
    ("certify", b"[output]\npath =   ; no file\n", "empty [output] path in config file 'c.cfg'"),
    ("nodes", b"[output]\npath =\n", "empty [output] path in config file 'c.cfg'"),
    ("certify", b"\xff\xfe[\x00s\x00", "malformed config file 'c.cfg': "),
], ids=["certify-empty-output-path", "nodes-empty-output-path", "not-utf8"])
def test_config_errors_name_the_file_and_write_nothing(tmp_path, monkeypatch, capsys, command,
                                                       data, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_bytes(data)
    assert cli.main([command, "--config", "c.cfg"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"configuration error: {message}")
    assert [path.name for path in tmp_path.iterdir()] == ["c.cfg"]


def test_inline_quartic_source():
    """``kummer.read_surface`` reads a quartic over GF(prime), or over QQ
    where the prime is None, as certify, nodes and descend's rebuild do."""
    for prime, domain in ((7, PrimeField(7)), (None, QQ)):
        curve, quartic = kummer.read_surface(prime, ["1/2", 1, 2, 3, 4, 5],
                                             "inline:X^4+Y^4+Z^4+W^4")
        assert curve.roots == (Fraction(1, 2), 1, 2, 3, 4, 5)
        assert quartic.total_degree() == 4 and quartic.ring.domain == domain
    for prime, roots, source, message in (
            (7, DEFAULT_ROOTS, "surprise:X", "quartic source must be corpus:<name>"),
            (4, DEFAULT_ROOTS, "inline:X^4", "modulus 4 is not prime"),
            (7, DEFAULT_ROOTS[:5], "inline:X^4", "exactly six Weierstrass roots")):
        with pytest.raises(ValueError, match=message):
            kummer.read_surface(prime, roots, source)


NON_INVARIANT_LABELS = ["E0", "E12", "E13", "E14", "E15", "E16",
                        "E23", "E24", "E25", "E26", "E34", "E35"]


def write_with_digest(path, document):
    """Write a document whose digest matches its (possibly edited) body."""
    canonical = json.dumps(document["body"], sort_keys=True, separators=(",", ":"))
    document["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps(document))
    return str(path)


def test_descend_rechecks_invariance_of_certified_body(tmp_path, capsys, certified_path):
    document = json.loads(certified_path.read_text())
    document["body"]["recipe"]["labels"] = NON_INVARIANT_LABELS
    path = write_with_digest(tmp_path / "forged.json", document)
    assert cli.main(["descend", path]) == cli.EXIT_UNCERTIFIED
    assert "Ulrich" not in capsys.readouterr().out


def test_descend_unknown_format_is_integrity_error(tmp_path, capsys, certified_path):
    document = json.loads(certified_path.read_text())
    document["format"] = "ulrich-certificate/2"
    path = write_with_digest(tmp_path / "v2.json", document)
    assert cli.main(["descend", path]) == cli.EXIT_INTEGRITY
    assert "unexpected format 'ulrich-certificate/2'" in capsys.readouterr().err


def test_descend_body_without_recipe_is_integrity_error(tmp_path, capsys, certified_path):
    document = json.loads(certified_path.read_text())
    del document["body"]["recipe"]
    path = write_with_digest(tmp_path / "norecipe.json", document)
    assert cli.main(["descend", path]) == cli.EXIT_INTEGRITY


def test_descend_refuses_a_forged_verdict(tmp_path, capsys):
    """A refuted certificate forged to read certified, with its failing
    quadric record set to pass and its digest recomputed: the rebuilt run
    refutes, so descend exits 8 and names the check."""
    out = tmp_path / "cert.json"
    cli.main(["certify", "--paper-defaults", "--out", str(out)])
    document = json.loads(out.read_text())
    body = document["body"]
    body["verdict"], body["refutation"] = "certified", None
    quadric, = (c for c in body["checks"] if c["name"] == "no-quadric-through-twelve-nodes")
    quadric["pass"], quadric["value"] = True, {"h0": 0, "witness": None}
    path = write_with_digest(tmp_path / "forged.json", document)
    capsys.readouterr()
    assert cli.main(["descend", path]) == cli.EXIT_UNCERTIFIED
    captured = capsys.readouterr()
    assert "'no-quadric-through-twelve-nodes'" in captured.err
    assert "Ulrich" not in captured.out


@pytest.mark.parametrize("certified", [32003, None], ids=["gf", "qq"], indirect=True)
def test_descend_names_the_field_a_certified_body_misstates(tmp_path, capsys, certified):
    """A run that certifies, whose body has one value edited and its digest
    recomputed: the rebuilt body differs, so descend exits 9 and names it."""
    out = tmp_path / "cert.json"
    write_certificate(out, certified)
    document = json.loads(out.read_text())
    assert document["body"]["surface"]["prime"] == certified.prime
    document["body"]["nodes"]["degree"] = 17
    path = write_with_digest(tmp_path / "edited.json", document)
    assert cli.main(["descend", path]) == cli.EXIT_INTEGRITY
    captured = capsys.readouterr()
    assert "at body.nodes.degree" in captured.err
    assert "Ulrich" not in captured.out


def test_descend_json_list_is_integrity_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    assert cli.main(["descend", str(path)]) == cli.EXIT_INTEGRITY


@pytest.mark.parametrize("text", [
    "this is not a certificate\n",
    "[" * 100000 + "]" * 100000,   # nested too deep for the JSON decoder
], ids=["plain-text", "nested-array"])
def test_descend_non_json_is_integrity_error(tmp_path, capsys, text):
    path = tmp_path / "garbage.json"
    path.write_text(text)
    assert cli.main(["descend", str(path)]) == cli.EXIT_INTEGRITY


MALFORMED_RECIPES = [
    {},
    [],
    {"kind": "twelve-nodes", "labels": 5},
    {"kind": "no-such-kind", "labels": NON_INVARIANT_LABELS},
    {"kind": "twelve-nodes", "labels": ["E99"] + NON_INVARIANT_LABELS[1:]},
    {"kind": "twelve-nodes", "labels": [5] + NON_INVARIANT_LABELS[1:]},
    {"kind": "twelve-nodes", "labels": ["E0"]},
    {"kind": "half-even-eight", "labels": NON_INVARIANT_LABELS},
    {"kind": "twelve-nodes", "labels": "E0"},
]
MISSING = object()
# other inputs of the run a body records: a field of the body and its new value
MALFORMED_INPUTS = [
    ("surface.prime", "32003"),
    ("surface.prime", 4),
    ("surface.roots", ["1", "-1", "2", "-2", "3"]),
    ("surface.roots", "123456"),
    ("surface.quartic", "Y^999999999"),
    ("surface.quartic", "X^5"),
    ("parameters", MISSING),
]
# the cases whose error is about the labels field itself
LABEL_CASES = {"labels-not-a-list", "non-string-token", "one-of-twelve-labels",
               "twelve-of-eight-labels", "labels-a-string"}


@pytest.mark.parametrize("field, value",
                         [("recipe", recipe) for recipe in MALFORMED_RECIPES] + MALFORMED_INPUTS,
                         ids=["empty-object", "list", "labels-not-a-list", "unknown-kind",
                              "bad-token", "non-string-token", "one-of-twelve-labels",
                              "twelve-of-eight-labels", "labels-a-string",
                              "prime-a-string", "prime-four", "five-roots", "roots-a-string",
                              "huge-quartic-exponent", "quintic", "no-parameters"])
def test_descend_malformed_recipe_is_integrity_error(tmp_path, capsys, request, certified_path,
                                                     field, value):
    """A malformed recipe, or another malformed input of the run, with its
    digest recomputed: descend cannot rebuild the body and exits 9."""
    document = json.loads(certified_path.read_text())
    *parents, key = field.split(".")
    parent = functools.reduce(dict.__getitem__, parents, document["body"])
    if value is MISSING:
        del parent[key]
    else:
        parent[key] = value
    path = write_with_digest(tmp_path / "malformed.json", document)
    assert cli.main(["descend", path]) == cli.EXIT_INTEGRITY
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "integrity error" in captured.err
    if request.node.callspec.id in LABEL_CASES:
        assert "labels" in captured.err


def test_version_matches_package_metadata():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M).group(1)
    assert ulrichcert.__version__ == declared


# the math layers: everything in the package but cli, labels and documents
LAYERS = {"cohomology", "enriques", "fields", "groebner", "kummer", "lattices", "linalg",
          "picard", "polynomials"}
CERTIFY_CHAIN = {"kummer", "groebner", "polynomials", "cohomology"}
# stdlib modules that only writing or reading a document needs
SERIALIZATION = {"hashlib", "json"}
# stdlib modules that no command loads: the command line is read without
# argparse (which brings gettext and locale), the header timestamp comes from
# time, and the records are named tuples or plain classes
UNUSED = {"argparse", "gettext", "locale", "datetime", "dataclasses"}
# loaded only where a Fraction is built: the lattice checks and a refused
# descend never load them
FRACTIONS = {"fractions", "decimal"}
# what descend reads, checks and refuses a certificate with
READER = {"ulrichcert", "labels", "documents"} | SERIALIZATION

# (argv, exit code) of every command shape of scripts/source_lines.py, by its
# name there, of the import of the CLI alone, and of descend reading a
# certificate edited to read certified without a new digest
SHAPES = {"import": ((), None), **source_lines.COMMANDS,
          "descend-wrong-digest": (("descend", "wrong-digest.json"), cli.EXIT_INTEGRITY)}
# the modules each shape needs, and those it must not load besides UNUSED
CONTRACT = {
    **dict.fromkeys(("import", "help", "usage-error"), (set(), LAYERS | SERIALIZATION | FRACTIONS)),
    # the digests are computed, not skipped; the timestamp comes from time,
    # which the interpreter loaded at start-up
    "certify": (CERTIFY_CHAIN | SERIALIZATION | {"fractions"}, set()),
    "nodes": ({"kummer", "fields", "linalg"}, {"cohomology", "picard"} | SERIALIZATION),
    "nodes-out": ({"kummer", "documents", "json"}, {"cohomology", "picard", "enriques"}),
    **dict.fromkeys(("theta-check", "incidence", "even-eights"),
                    ({"picard"}, CERTIFY_CHAIN | SERIALIZATION | FRACTIONS)),
    "horikawa": ({"lattices"}, {"picard"} | CERTIFY_CHAIN | SERIALIZATION | FRACTIONS),
    **dict.fromkeys(("descend-refuted", "descend-wrong-digest"), (READER, LAYERS | FRACTIONS)),
}


def modules_loaded_by(argv=(), module="ulrichcert.cli", cwd=None):
    """``source_lines.loaded_modules``: the exit status and the modules added,
    with the layers of ``ulrichcert`` named without the package."""
    loaded = source_lines.loaded_modules(argv, cwd, module)
    return loaded.status, {name.removeprefix("ulrichcert.") for name in loaded.names}


@pytest.fixture(scope="module")
def refuted_dir(tmp_path_factory):
    """A directory holding the refuted reference certificate, ``cert.json``,
    where the ``descend`` shape reads it, and a copy edited to read certified
    without a new digest, ``wrong-digest.json``."""
    directory = tmp_path_factory.mktemp("refuted")
    assert cli.main(["certify", "--paper-defaults",
                     "--out", str(directory / "cert.json")]) == cli.EXIT_EFFECTIVITY
    text = (directory / "cert.json").read_text()
    (directory / "wrong-digest.json").write_text(
        text.replace('"verdict": "refuted"', '"verdict": "certified"'))
    return directory


@pytest.mark.parametrize("shape", SHAPES)
def test_each_command_imports_only_its_layers(refuted_dir, shape):
    (argv, exit_code), (needed, absent) = SHAPES[shape], CONTRACT[shape]
    status, loaded = modules_loaded_by(argv, cwd=refuted_dir)
    assert status == exit_code
    assert needed <= loaded, sorted(needed - loaded)
    assert not loaded & (absent | UNUSED), sorted(loaded & (absent | UNUSED))


@pytest.mark.parametrize("verdict", ["refuted", MISSING, None, "Certified"],
                         ids=["refuted", "missing", "null", "capitalised"])
def test_descend_refuses_an_uncertified_verdict_before_any_math_layer(tmp_path, refuted_dir,
                                                                     verdict):
    """The verdict rule: only a body recording exactly ``certified`` goes on
    to the rebuild, so every other verdict exits 8 with no math layer loaded."""
    document = json.loads((refuted_dir / "cert.json").read_text())
    if verdict is MISSING:
        del document["body"]["verdict"]
    else:
        document["body"]["verdict"] = verdict
    path = write_with_digest(tmp_path / "verdict.json", document)
    status, loaded = modules_loaded_by(["descend", path])
    assert status == cli.EXIT_UNCERTIFIED
    assert "documents" in loaded
    assert not loaded & LAYERS, sorted(loaded & LAYERS)


@pytest.mark.parametrize("layer", ["cohomology", "kummer", "picard", "lattices", "cli",
                                   "documents"])
def test_layers_import_no_serialization_modules(layer):
    """No layer loads a serialization module on import, and neither the CLI
    nor ``documents`` loads a math layer."""
    _, loaded = modules_loaded_by(module=f"ulrichcert.{layer}")
    absent = SERIALIZATION | UNUSED | (LAYERS if layer in ("cli", "documents") else set())
    assert layer in loaded
    assert not loaded & absent, sorted(loaded & absent)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(args, cwd=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)


def test_in_process_main_never_freezes_the_heap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    for argv, exit_code in source_lines.COMMANDS.values():
        assert cli.main(argv) == exit_code, argv
    assert gc.get_freeze_count() == frozen


def test_process_entry_freezes_the_heap_once_the_command_returns():
    probe = ("import gc, sys\n"
             "import ulrichcert.cli as cli\n"
             "sys.argv = ['ulrichcert', 'lattice', 'horikawa']\n"
             "before = gc.get_freeze_count()\n"
             "status = cli.main()\n"
             "print(status, before, gc.get_freeze_count())\n")
    run = run_python(["-c", probe])
    assert run.returncode == 0, run.stderr
    status, before, after = map(int, run.stdout.splitlines()[-1].split())
    assert (status, before) == (0, 0)
    assert after > 0


def test_module_entry_prints_and_exits_as_a_run_that_passes_argv(tmp_path):
    """``python -m ulrichcert.cli``, which freezes, against ``cli.main`` given
    the same argv, which does not: each command shape of
    ``scripts/source_lines.py`` runs in order in its own directory per side."""
    passed = "import sys, ulrichcert.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    results = []
    for side, head in (("entry", ["-m", "ulrichcert.cli"]), ("argv", ["-c", passed])):
        (tmp_path / side).mkdir()
        runs = [run_python([*head, *argv], cwd=tmp_path / side)
                for argv, _ in source_lines.COMMANDS.values()]
        results.append([(run.returncode, run.stdout, run.stderr) for run in runs])
    assert [code for code, _, _ in results[0]] == [
        exit_code for _, exit_code in source_lines.COMMANDS.values()]
    assert results[0] == results[1]


def test_header_timestamp_is_utc_with_microseconds(tmp_path, capsys):
    out = tmp_path / "cert.json"
    before = datetime.datetime.now(datetime.timezone.utc)
    cli.main(["certify", "--paper-defaults", "--out", str(out)])
    after = datetime.datetime.now(datetime.timezone.utc)
    header = json.loads(out.read_text())["header"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", header["created"])
    created = datetime.datetime.fromisoformat(header["created"])
    assert created.utcoffset() == datetime.timedelta(0)
    slack = datetime.timedelta(seconds=2)
    assert before - slack <= created <= after + slack
    assert header["tool"] == f"ulrichcert {ulrichcert.__version__}"


def test_package_exports_resolve_lazily():
    from ulrichcert import cohomology, documents
    namespace = {}
    exec("from ulrichcert import *", namespace)
    assert set(ulrichcert.__all__) <= set(namespace)
    assert namespace["certify_ulrich"] is cohomology.certify_ulrich
    assert ulrichcert.__version__ == documents.TOOL_VERSION == "0.1.0"
    with pytest.raises(AttributeError):
        ulrichcert.no_such_export

"""Command-line surface: nodes, certify, lattice subchecks, descend.

Exit codes are a stable contract:

    0  success / certified
    2  configuration error
    3  node verification failure
    4  numerical refutation
    5  invariance refutation
    6  even-eight refutation
    7  effectivity refutation
    8  descent input not certified: the recorded verdict, or the run rebuilt
       from the certificate's inputs, does not certify (or the file is missing
       or cannot be read)
    9  certificate integrity failure (not JSON, digest mismatch, unreadable
       inputs, or a certified rebuild whose body differs from the recorded one)
    1  generic check failure in lattice subcommands

Certificates and ``descend`` reports are JSON documents with a detachable
header (timestamp and tool version); the ``nodes --out`` report is a bare
body. Bodies are deterministic, so two runs on the same configuration
produce byte-identical bodies.

Each command imports only the layers it runs, so a lattice check does not
pay for loading the polynomial and Groebner layers, ``nodes --out`` writes
its report without the certify chain, and ``descend`` reads, checks and
refuses a certificate through ``documents`` before it loads ``cohomology``
for a body that records ``certified``.

The inputs of a run are read through one table, ``INPUTS``: its defaults
(``--paper-defaults``), then a config file's keys, then ``--prime`` and
``--out``. ``nodes`` and ``certify`` build the curve and the quartic from
them through ``kummer.read_surface``, and ``descend`` rebuilds a certified
body through the same reader. ``nodes`` writes a report only where ``--out``
names one; a configuration's ``[output] path`` names the certificate that
``certify`` writes.

The command line is read against one table, ``COMMANDS``, rather than with
``argparse``, which with ``gettext`` and ``locale`` would cost every cold
call a few milliseconds. Flags are spelled in full. ``-h`` or ``--help``
prints the usage to stdout and exits 0; a command line the table does not
admit prints the usage and the error to stderr and exits 2.

``main()`` with no ``argv`` is the process entry, as ``python -m
ulrichcert.cli`` and the installed ``ulrichcert`` script call it: once the
command has returned it calls ``gc.freeze()``, so the collections that
interpreter finalization runs skip every object alive by then. A caller that
passes ``argv`` runs the command in its own process, whose heap is never
frozen.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace

from .labels import (DEFAULT_PRIME, DEFAULT_ROOTS, DEFAULT_TWELVE, TWELVE_NODES, node_token,
                     parse_number, trope_token)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NODES = 3
EXIT_NUMERICAL = 4
EXIT_INVARIANCE = 5
EXIT_EVEN_EIGHT = 6
EXIT_EFFECTIVITY = 7
EXIT_UNCERTIFIED = 8
EXIT_INTEGRITY = 9


# INI key -> (section, reader of its text, default): the inputs of a run. They
# are read as the defaults, then a config file's keys, then --prime and --out;
# configparser has already stripped the text of a key, but not of a flag
INPUTS = {
    "prime": ("surface", lambda text: parse_number(text, "prime", integer=True), DEFAULT_PRIME),
    "roots": ("surface", lambda text: tuple(text.split(",")), DEFAULT_ROOTS),
    "quartic": ("surface", str, "corpus:kummer_quartic"),
    "recipe": ("bundle", str, TWELVE_NODES),
    "labels": ("bundle", lambda text: tuple(token.strip() for token in text.split(",")),
               tuple(node_token(label) for label in DEFAULT_TWELVE)),
    "path": ("output", str, None),
}


def load_config(path: str) -> dict:
    """The inputs that the config file at ``path`` gives, by INI key."""
    import configparser
    # no interpolation: a '%' in a value is read literally
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    given = {key: reader(parser[section][key])
             for key, (section, reader, _) in INPUTS.items() if parser.has_option(section, key)}
    if given.get("path") == "":
        raise ValueError(f"empty [output] path in config file {path!r}")
    return given


def _resolve_config(args) -> dict:
    if args.config and args.paper_defaults:
        raise ValueError("give either --config or --paper-defaults, not both")
    if not (args.config or args.paper_defaults):
        raise ValueError("a configuration is required: --config PATH or --paper-defaults")
    run = {key: default for key, (_, _, default) in INPUTS.items()}
    if args.config:
        run.update(load_config(args.config))
    for key, value in (("prime", args.prime), ("path", args.out)):
        if value is not None:
            run[key] = INPUTS[key][1](value)
    return run


def _cmd_nodes(args) -> int:
    from . import kummer
    run = _resolve_config(args)
    curve, quartic = kummer.read_surface(run["prime"], run["roots"], run["quartic"])
    report = kummer.verify_sixteen_nodes(quartic, curve)
    rational = kummer.all_node_points(curve)
    print(f"sixteen nodes of the degree-4 model (prime {run['prime']}):")
    for label, point in rational.items():
        residues = report.points[label].coordinates
        print(f"  {node_token(label):>4}  ({':'.join(str(c) for c in point.coordinates)})"
              f"   mod p ({':'.join(str(c) for c in residues)})")
    print(report.summary())
    if args.out:
        from .documents import write_json_atomic
        body = {
            "prime": run["prime"],
            "roots": [str(r) for r in curve.roots],
            "nodes": [
                {"label": node_token(label),
                 "coordinates": [str(c) for c in rational[label].coordinates],
                 "residues": [int(c) for c in report.points[label].coordinates]}
                for label in rational
            ],
            "verification": report.evidence(),
        }
        write_json_atomic(args.out, body)
    return EXIT_OK if report.passed else EXIT_NODES


def _cmd_certify(args) -> int:
    from . import cohomology, kummer
    from .picard import checked_recipe
    run = _resolve_config(args)
    cert = cohomology.certify_ulrich(
        *kummer.read_surface(run["prime"], run["roots"], run["quartic"]),
        checked_recipe(run["recipe"], run["labels"]))
    out_path = run["path"] or "ulrich_certificate.json"
    cohomology.write_certificate(out_path, cert)
    for record in cert.checks:
        print(f"  [{'pass' if record.passed else 'FAIL'}] {record.name}: {record.value}")
    print(f"verdict: {cert.verdict}"
          + (f" ({cert.refutation_reason})" if cert.refutation_reason else ""))
    print(f"certificate written to {out_path}")
    if cert.verdict == "certified":
        return EXIT_OK
    reason_exits = {
        cohomology.REASON_NODES: EXIT_NODES,
        cohomology.REASON_NUMERICAL: EXIT_NUMERICAL,
        cohomology.REASON_INVARIANCE: EXIT_INVARIANCE,
        cohomology.REASON_EVEN_EIGHT: EXIT_EVEN_EIGHT,
        cohomology.REASON_EFFECTIVITY: EXIT_EFFECTIVITY,
    }
    return reason_exits.get(cert.refutation_reason, EXIT_FAILURE)


def _cmd_lattice(args) -> int:
    sub = args.check
    if sub == "horikawa":
        from . import lattices
        lattice = lattices.k3_lattice()
        vartheta = lattices.build_vartheta(lattice)
        invariant, _ = lattices.invariant_sublattice(lattice, vartheta)
        sig = invariant.signature()
        det = invariant.determinant()
        even = invariant.all_entries_even()
        print(f"  invariant sublattice rank: {invariant.rank}")
        print(f"  determinant: {det}")
        print(f"  signature: {sig}")
        print(f"  all Gram entries even: {even}")
        ok = (invariant.rank, det, sig, even) == (10, -1024, (1, 9), True)
        return EXIT_OK if ok else EXIT_FAILURE
    from . import picard
    if sub == "theta-check":
        theta = picard.build_theta_star()  # construction asserts the table
        node_images = {picard.trope(picard.THETA_SWAP[l]) for l in picard.NODE_LABELS}
        tropes = {picard.trope(t) for t in picard.TROPE_LABELS}
        swap_ok = node_images == tropes
        h_ok = picard.is_invariant(theta, picard.polarization())
        m_ok = picard.is_invariant(theta, picard.default_recipe().divisor())
        print("  involution and isometry: pass (checked at construction)")
        print(f"  nodes map onto tropes: {'pass' if swap_ok else 'FAIL'}")
        print(f"  polarization invariant: {'pass' if h_ok else 'FAIL'}")
        print(f"  candidate class invariant: {'pass' if m_ok else 'FAIL'}")
        return EXIT_OK if (swap_ok and h_ok and m_ok) else EXIT_FAILURE
    if sub == "incidence":
        table = picard.incidence_table()
        valid = picard.incidence_is_16_6(table)
        for nl in picard.NODE_LABELS:
            row = "".join(str(table[(nl, tl)]) for tl in picard.TROPE_LABELS)
            print(f"  {node_token(nl):>4}  {row}")
        print("  columns: " + " ".join(trope_token(t) for t in picard.TROPE_LABELS))
        print(f"  every row and column sums to six: {'pass' if valid else 'FAIL'}")
        return EXIT_OK if valid else EXIT_FAILURE
    # even-eights: the reader admits only the checks of LATTICE_CHECKS
    positives = picard.default_even_eight_tester().sweep()
    closed = all(frozenset(set(picard.NODE_LABELS) - s) in set(positives)
                 for s in positives)
    print(f"  positive eight-subsets: {len(positives)} of 12870")
    print(f"  closed under complementation: {'pass' if closed else 'FAIL'}")
    return EXIT_OK if closed else EXIT_FAILURE


def _cmd_descend(args) -> int:
    from . import documents
    try:
        try:
            document = documents.load_certificate_document(args.certificate)
        except FileNotFoundError:
            print(f"certificate file {args.certificate!r} not found", file=sys.stderr)
            return EXIT_UNCERTIFIED
        except OSError as exc:
            print(f"certificate file {args.certificate!r} cannot be read: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_UNCERTIFIED
        documents.certified_body(document)
        from . import cohomology
        report = cohomology.descend_from_document(document)
    except documents.CertificateIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except documents.UncertifiedCertificateError as exc:
        print(f"descent error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    for name, cover, quotient in report["halving"]:
        print(f"  {name}: {cover} on the cover -> {quotient} on the quotient")
    print(f"  chi of the quotient polarization: {report['chi_polarization']}")
    print(f"  h0 of the quotient polarization: {report['h0_polarization']}"
          f" (degree-{report['plane_cover_degree']} cover of the plane)")
    print(f"  conclusion: {report['conclusion']}")
    if args.out:
        documents.write_json_atomic(args.out, documents._document(documents.REPORT_FORMAT, report))
    return EXIT_OK


USAGE = """\
usage: ulrichcert nodes   (--config PATH | --paper-defaults) [--prime P] [--out PATH]
       ulrichcert certify (--config PATH | --paper-defaults) [--prime P] [--out PATH]
       ulrichcert lattice theta-check | incidence | even-eights | horikawa
       ulrichcert descend CERTIFICATE [--out PATH]
       ulrichcert -h | --help"""

# command -> (positionals, flags that take a value, flags that take none);
# each is read into the attribute of its name. ``main`` looks ``_cmd_<command>``
# up when it runs, so a wrapper set on the module after import is the one called
_CONFIG_FLAGS = (("--config", "--prime", "--out"), ("--paper-defaults",))
COMMANDS = {
    "nodes": ((), *_CONFIG_FLAGS),
    "certify": ((), *_CONFIG_FLAGS),
    "lattice": (("check",), (), ()),
    "descend": (("certificate",), ("--out",), ()),
}
LATTICE_CHECKS = ("theta-check", "incidence", "even-eights", "horikawa")
HELP = ("-h", "--help")


class UsageError(Exception):
    """A command line that the table does not admit."""


def parse_args(argv) -> SimpleNamespace | None:
    """The command line as a namespace, or None where it asks for help.

    Flags are spelled in full, as ``--flag value`` or ``--flag=value``, before
    or after the positionals; a repeated flag keeps its last value. Every
    token that starts with ``-`` is a flag, so no value or positional does,
    and a value that is empty or only whitespace counts as no value.
    """
    if not argv:
        raise UsageError("a command is required")
    command, *rest = argv
    if command in HELP:
        return None
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    positionals, valued, switches = COMMANDS[command]
    values = {flag[2:].replace("-", "_"): None for flag in valued}
    values.update((flag[2:].replace("-", "_"), False) for flag in switches)
    given = []
    tokens = iter(rest)
    for token in tokens:
        if token in HELP:
            return None
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag in switches:
            if eq:
                raise UsageError(f"flag {flag} takes no value")
            value = True
        elif flag not in valued:
            raise UsageError(f"unknown flag {flag!r} for {command}")
        else:
            if not eq:
                value = next(tokens, "")
            if not value.strip() or (not eq and value.startswith("-")):
                raise UsageError(f"flag {flag} needs a value")
        values[flag[2:].replace("-", "_")] = value
    if len(given) != len(positionals):
        raise UsageError(f"{command} takes {len(positionals)} positional argument(s) "
                         f"({' '.join(positionals) or 'none'}), got {len(given)}")
    values.update(zip(positionals, given))
    if command == "lattice" and values["check"] not in LATTICE_CHECKS:
        raise UsageError(f"unknown lattice check {values['check']!r}; "
                         f"choose from {', '.join(LATTICE_CHECKS)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    With ``argv=None`` this is the process entry: it reads ``sys.argv`` and,
    once the command has returned, freezes the heap (``gc.freeze()``) so the
    interpreter's exit-time collections do not traverse it. A passed ``argv``
    never freezes.
    """
    if argv is None:
        try:
            return main(sys.argv[1:])
        finally:
            import gc
            gc.freeze()
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"{USAGE}\nulrichcert: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args is None:
        print(USAGE)
        return EXIT_OK
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

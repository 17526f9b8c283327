#!/usr/bin/env python3
"""End-to-end run: verify the sixteen nodes, certify the candidate class,
and descend to the quotient surface when certification succeeds."""
import argparse
import sys

from ulrichcert.cohomology import certify_ulrich, descend_to_enriques, write_certificate
from ulrichcert.fields import PrimeField
from ulrichcert.kummer import Genus2Curve, DEFAULT_ROOTS, load_corpus_quartic
from ulrichcert.labels import DEFAULT_PRIME
from ulrichcert.picard import BundleRecipe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--out", default="ulrich_certificate.json")
    args = parser.parse_args()

    curve = Genus2Curve(DEFAULT_ROOTS)
    quartic = load_corpus_quartic(PrimeField(args.prime))
    cert = certify_ulrich(curve, quartic, BundleRecipe())

    for record in cert.checks:
        print(f"[{'pass' if record.passed else 'FAIL'}] {record.name}: {record.value}")
    print(f"verdict: {cert.verdict}"
          + (f" ({cert.refutation_reason})" if cert.refutation_reason else ""))
    write_certificate(args.out, cert)
    print(f"certificate written to {args.out}")

    if cert.verdict != "certified":
        return 1
    report = descend_to_enriques(cert)
    for name, cover, quotient in report.halving:
        print(f"{name}: {cover} -> {quotient}")
    print(report.conclusion)
    return 0


if __name__ == "__main__":
    sys.exit(main())

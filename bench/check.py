"""Answer checker: every op of every run is checked.

Two kinds of reference are used. Answers fixed by theory are checked
independently of the program: sixteen distinct nodes with singular locus
(3, 16); H^2 = 8, M.H = M^2 = 12 and chi = 0 for the default recipe, which is
invariant; (3, k) for the ideal of k points; the 30 even eights, closed
under complement; 24 invariant twelve-node recipes; the documented CLI exit
codes. Certificate body digests and h0 values are compared with
``expected.json``, recorded from the program at the commit that introduced
the benchmark (see ``record.py``).
"""
from __future__ import annotations

import json
import os

from inputs import NODE_TOKENS, classical_even_eights

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# exit codes of the CLI contract
EXIT_OK, EXIT_UNCERTIFIED = 0, 8
REASON_EXITS = {"nodes": 3, "numerical": 4, "invariance": 5, "even-eight": 6,
                "effectivity": 7}

CERTIFICATE_THEORY = {
    "polarization-square": "8",
    "candidate-dot-polarization": "12",
    "candidate-square": "12",
    "chi-m-minus-h": "0",
    "chi-m-minus-2h": "0",
    "involution-fixes-polarization": True,
    "involution-fixes-candidate": True,
}

CLI_STDOUT = {
    "nodes": ["sixteen-nodes check: pass, singular locus (codim, degree) = (3, 16)"],
    "theta-check": ["nodes map onto tropes: pass", "polarization invariant: pass",
                    "candidate class invariant: pass"],
    "incidence": ["every row and column sums to six: pass"],
    "even-eights": ["positive eight-subsets: 30 of 12870",
                    "closed under complementation: pass"],
    "horikawa": ["invariant sublattice rank: 10", "determinant: -1024",
                 "signature: (1, 9)"],
}


def certificate_theory(answer):
    """Failure reason if a reduced certificate breaks what theory fixes."""
    if "error" in answer:
        return f"no certificate: {answer['error']}"
    nodes = answer["nodes"]
    if not (nodes["passed"] and nodes["distinct"]
            and (nodes["codim"], nodes["degree"]) == (3, 16)):
        return f"node check {nodes}"
    for name, want in CERTIFICATE_THEORY.items():
        if answer["values"].get(name) != want:
            return f"{name} = {answer['values'].get(name)!r}, theory says {want!r}"
    if answer["digest"] != answer["document_digest"]:
        return "the document digest does not match its body"
    return None


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    if len(expected["invariant_recipes"]) != 24:
        raise ValueError("expected.json must list the 24 invariant twelve-node recipes")
    return expected


class Checker:
    def __init__(self, expected=None):
        self.expected = expected if expected is not None else load_expected()
        self.invariant = {tuple(k.split()): v
                          for k, v in self.expected["invariant_recipes"].items()}
        eights = classical_even_eights()
        if len(eights) != 30 or any(tuple(t for t in NODE_TOKENS if t not in e) not in eights
                                    for e in eights):
            raise ValueError("the even eights must be 30 sets closed under complement")
        self.even_eights = {frozenset(e) for e in eights}

    def expected_surface(self, op):
        entry = self.expected["surfaces"][op["kind"]][op["index"]]
        if entry is None:
            return None, None
        digest, reason = entry.split()
        return digest, reason

    def certificate(self, op, answer):
        """Failure reason for a certificate answer, or None."""
        failure = certificate_theory(answer)
        if failure:
            return failure
        digest, reason = self.expected_surface(op)
        if digest is None:
            return "surface has no recorded certificate"
        if not answer["digest"].startswith(digest):
            return f"body digest {answer['digest'][:16]} != recorded {digest}"
        if (answer["reason"] or "certified") != reason:
            return f"verdict reason {answer['reason']} != recorded {reason}"
        return None

    def check(self, op, answer, error) -> str | None:
        """Failure reason for one op, or None when the answer is right."""
        if error is not None:
            return error
        kind = op["op"]
        if kind == "certify":
            return self.certificate(op, answer)
        if kind == "points":
            want = [3, op["k"]]
            return None if answer == want else f"(codim, degree) = {answer}, want {want}"
        if kind == "twelve":
            labels = tuple(op["labels"])
            if answer["numerical"] is not True:
                return "a twelve-node recipe must meet the numerical conditions"
            if answer["invariant"] != (labels in self.invariant):
                return f"invariance {answer['invariant']} for {' '.join(labels)}"
            if answer["invariant"] and answer["h0"] != self.invariant[labels]:
                return f"h0 {answer['h0']} != recorded {self.invariant[labels]}"
            return None
        if kind == "eight":
            want = frozenset(op["labels"]) in self.even_eights
            return None if answer == want else f"even-eight test {answer}, want {want}"
        if kind == "cli":
            return self.cli(op, answer)
        return f"unknown op {kind!r}"

    def cli(self, op, answer):
        command = op["command"]
        if answer["traceback"]:
            return f"{command} printed a traceback"
        if command == "certify":
            _, reason = self.expected_surface(op)
            want = EXIT_OK if reason == "certified" else REASON_EXITS.get(reason)
            if answer["code"] != want:
                return f"certify exit {answer['code']}, want {want}"
            return self.certificate(op, answer["certificate"])
        if command == "descend":
            _, reason = self.expected_surface(op)
            want = EXIT_OK if reason == "certified" else EXIT_UNCERTIFIED
            return None if answer["code"] == want else f"descend exit {answer['code']}, want {want}"
        if answer["code"] != EXIT_OK:
            return f"{command} exit {answer['code']}"
        missing = [line for line in CLI_STDOUT[command] if line not in answer["stdout"]]
        return f"{command} output lacks {missing}" if missing else None


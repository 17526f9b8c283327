"""Spans around calls into ulrichcert's layers, recorded from the outside.

A traced run replaces selected functions with timing wrappers at the name
the caller looks up: ``cohomology`` binds ``verify_sixteen_nodes``,
``build_theta_star``, ``is_invariant`` and ``kernel_basis`` through
``from ... import``, and ``kummer`` binds ``buchberger`` the same way, so
those are patched on the importing module as well as on the defining one.
An untraced run installs nothing. Spans live in memory and are written out
when the run ends.

Every ``_ms`` per-layer metric is self time (a span's duration minus the
part its child spans cover), summed over the traced pass and divided by the
number of ops, so the layer self times plus ``harness.uncovered_ms`` add up
to ``harness.traced_op_ms``.
"""
from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, OP, COUNTS = range(6)

# span name -> per-layer metric name
LAYER_METRICS = {
    "polynomials.parse": "polynomials.parse_ms",
    "kummer.verify_sixteen_nodes": "kummer.verify_sixteen_nodes.self_ms",
    "groebner.buchberger": "groebner.buchberger_ms",
    "groebner.hilbert": "groebner.hilbert_ms",
    "picard.build_theta_star": "picard.build_theta_star_ms",
    "picard.divisor": "picard.divisor_ms",
    "picard.numerical_ulrich": "picard.numerical_ulrich_ms",
    "picard.is_invariant": "picard.is_invariant_ms",
    "picard.even_eight_test": "picard.even_eight_test_ms",
    "cohomology.certify_ulrich": "cohomology.certify_ulrich.self_ms",
    "cohomology.effectivity": "cohomology.effectivity_ms",
    "cohomology.h0": "cohomology.h0_ms",
    "cohomology.section_basis": "cohomology.section_basis.self_ms",
    "cohomology.serialize": "cohomology.serialize_ms",
    "linalg.kernel_basis": "linalg.kernel_basis_ms",
    "linalg.hnf": "linalg.hnf_ms",
    "lattices.horikawa": "lattices.horikawa_ms",
    "cli.interpreter": "cli.interpreter_ms",
    "cli.import": "cli.import_ms",
    "cli.certify": "cli.certify_ms",
    "cli.nodes": "cli.nodes_ms",
    "cli.theta-check": "cli.theta-check_ms",
    "cli.incidence": "cli.incidence_ms",
    "cli.even-eights": "cli.even-eights_ms",
    "cli.horikawa": "cli.horikawa_ms",
    "cli.descend": "cli.descend_ms",
}

# per-layer counter metrics: name -> (span name, counter key, per)
# per "call" averages over the span's calls, "op" over the traced ops, and
# "share" is the fraction of calls whose counter is set
COUNTER_METRICS = {
    "polynomials.quartic_terms": ("polynomials.parse", "terms", "call"),
    "groebner.buchberger_calls": ("groebner.buchberger", None, "op"),
    "groebner.gens_in": ("groebner.buchberger", "gens_in", "call"),
    "groebner.basis_out": ("groebner.buchberger", "basis_out", "call"),
    "picard.invariant_share": ("picard.is_invariant", "yes", "share"),
    "picard.even_eight_share": ("picard.even_eight_test", "yes", "share"),
    "linalg.rows": ("linalg.kernel_basis", "rows", "call"),
    "linalg.cols": ("linalg.kernel_basis", "cols", "call"),
    "linalg.rank": ("linalg.kernel_basis", "rank", "call"),
}


def _count_buchberger(args, kwargs, result):
    gens = args[0] if args else kwargs["gens"]
    return {"gens_in": sum(1 for g in gens if not g.is_zero()),
            "basis_out": len(result.generators)}


def _count_kernel(args, kwargs, result):
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return {"rows": len(args[0]), "cols": ncols, "rank": ncols - len(result)}


def _count_yes(args, kwargs, result):
    return {"yes": 1 if result else 0}


def _lattice_check_name(args, kwargs):
    return f"cli.{args[0].check}"


def targets():
    """(owner, attribute, span name, counter) for every wrapped call site."""
    from ulrichcert import cohomology, groebner, kummer, lattices, picard
    gram = lattices.LatticeGram
    return [
        (kummer, "parse_quartic", "polynomials.parse",
         lambda a, k, r: {"terms": len(r.terms)}),
        (cohomology, "certify_ulrich", "cohomology.certify_ulrich", None),
        (cohomology, "verify_sixteen_nodes", "kummer.verify_sixteen_nodes", None),
        (kummer, "verify_sixteen_nodes", "kummer.verify_sixteen_nodes", None),
        (kummer, "buchberger", "groebner.buchberger", _count_buchberger),
        (groebner, "buchberger", "groebner.buchberger", _count_buchberger),
        (kummer, "hilbert_degree_codim", "groebner.hilbert", None),
        (groebner, "hilbert_degree_codim", "groebner.hilbert", None),
        (cohomology, "build_theta_star", "picard.build_theta_star", None),
        (picard, "build_theta_star", "picard.build_theta_star", None),
        (cohomology, "is_invariant", "picard.is_invariant", _count_yes),
        (picard, "is_invariant", "picard.is_invariant", _count_yes),
        (picard.BundleRecipe, "divisor", "picard.divisor", None),
        (picard, "numerical_ulrich", "picard.numerical_ulrich", None),
        (picard, "even_eight_test", "picard.even_eight_test", _count_yes),
        (picard, "hermite_normal_form", "linalg.hnf", None),
        (cohomology, "check_two_h_minus_m", "cohomology.effectivity", None),
        (cohomology, "check_m_minus_h", "cohomology.effectivity", None),
        (cohomology, "h0_forms_through_points", "cohomology.h0", None),
        (cohomology, "section_basis", "cohomology.section_basis", None),
        (cohomology, "kernel_basis", "linalg.kernel_basis", _count_kernel),
        (cohomology, "certificate_document", "cohomology.serialize", None),
        (lattices, "k3_lattice", "lattices.horikawa", None),
        (lattices, "build_vartheta", "lattices.horikawa", None),
        (lattices, "invariant_sublattice", "lattices.horikawa", None),
        (gram, "signature", "lattices.horikawa", None),
        (gram, "determinant", "lattices.horikawa", None),
    ]


def cli_targets():
    """Command handlers of the CLI, one span per command."""
    from ulrichcert import cli
    return [
        (cli, "_cmd_certify", "cli.certify", None),
        (cli, "_cmd_nodes", "cli.nodes", None),
        (cli, "_cmd_lattice", _lattice_check_name, None),
        (cli, "_cmd_descend", "cli.descend", None),
    ]


class Tracer:
    """In-memory span recorder. Spans are lists
    ``[name, start_ns, end_ns, parent_index, op_id, counters]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index, counts=None, end=None):
        top = self._stack.pop()
        assert top == index, "spans must close in stack order"
        span = self.spans[index]
        span[END] = end if end is not None else time.perf_counter_ns()
        span[COUNTS] = counts

    def add(self, name, start, end, parent, counts=None):
        """Record a finished span, such as one reported by a child process."""
        self.spans.append([name, start, end, parent, self.op, counts])
        return len(self.spans) - 1

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name(args, kwargs) if callable(name) else name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self.end(index, counts)
        traced.__wrapped_by_bench__ = True
        return traced

    def install(self, sites):
        for owner, attr, name, count in sites:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, in ns, indexed like ``spans``."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics of a traced pass whose op spans are named ``op``."""
    own = self_times(spans)
    totals = {}
    calls = {}
    counters = {}
    for s, t in zip(spans, own):
        totals[s[NAME]] = totals.get(s[NAME], 0) + t
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        for key, value in (s[COUNTS] or {}).items():
            counters[(s[NAME], key)] = counters.get((s[NAME], key), 0) + value
    ops = max(n_ops, 1)
    out = {metric: totals.get(span, 0) / ops / 1e6 for span, metric in LAYER_METRICS.items()}
    for metric, (span, key, per) in COUNTER_METRICS.items():
        n = calls.get(span, 0)
        if per == "op":
            out[metric] = n / ops
        else:
            out[metric] = counters.get((span, key), 0) / n if n else 0.0
    out["harness.uncovered_ms"] = totals.get("op", 0) / ops / 1e6
    out["harness.traced_op_ms"] = sum(
        s[END] - s[START] for s in spans if s[NAME] == "op") / ops / 1e6
    return out

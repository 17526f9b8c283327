"""Tests of the benchmark itself: python3 -m pytest bench -q"""
import itertools
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

INVARIANT = [tuple(k.split()) for k in check.load_expected()["invariant_recipes"]]


def _first_rounds(workload, seed, n):
    stream = inputs.rounds(workload, seed, INVARIANT)
    return json.dumps(list(itertools.islice(stream, n)), sort_keys=True)


def test_same_seed_gives_identical_inputs():
    for workload, n in (("certify-batch", 2), ("point-ideals", 5),
                        ("recipe-sweep", 20), ("cli-cold", 2)):
        first = _first_rounds(workload, 11, n)
        assert first == _first_rounds(workload, 11, n), workload
        assert first != _first_rounds(workload, 12, n), workload


def test_derived_quartic_is_the_bundled_one():
    bundled = open(os.path.join(worker.SRC, "ulrichcert", "corpus",
                                "kummer_quartic.txt")).read()
    coeffs = inputs.singular_quartic(inputs.DEFAULT_ROOTS)
    text = inputs.quartic_text(coeffs)
    assert sorted(text.replace("-", "+-").split("+")) == \
        sorted("".join(bundled.split()).replace("-", "+-").split("+"))


def _certify_record():
    st = worker.setup("certify-batch")
    op = next(inputs.rounds("certify-batch", 3))[0]
    prepare, run_op, reduce = worker.HANDLERS["certify"]
    return op, reduce(run_op(prepare(op, st), st), op, st)


def test_wrong_answers_count_as_failed():
    checker = check.Checker()
    op, answer = _certify_record()
    assert run.failures([[op, answer, None, 1]], checker) == []

    tampered = dict(answer, digest="0" * 64, document_digest="0" * 64)
    wrong_nodes = dict(answer, nodes=dict(answer["nodes"], degree=15))
    points = {"op": "points", "k": 7, "labels": list(inputs.NODE_TOKENS[:7])}
    records = [
        [op, tampered, None, 1],
        [op, wrong_nodes, None, 1],
        [points, [3, 6], None, 1],
        [points, None, "ZeroDivisionError: boom", 1],
        [points, [3, 7], None, 1],
    ]
    failed = run.failures(records, checker)
    assert [r[0] for r in failed] == [records[0][0], records[1][0], points, points]
    assert "digest" in failed[0][1]


def test_cli_exit_codes_are_checked():
    checker = check.Checker()
    op, answer = _certify_record()
    descend = dict(op, op="cli", command="descend")
    assert checker.check(descend, {"code": 8, "stdout": "", "traceback": False}, None) is None
    assert checker.check(descend, {"code": 0, "stdout": "", "traceback": False}, None)
    assert checker.check(descend, {"code": 8, "stdout": "", "traceback": True}, None)
    horikawa = dict(op, op="cli", command="horikawa")
    good = ("  invariant sublattice rank: 10\n  determinant: -1024\n"
            "  signature: (1, 9)\n")
    assert checker.check(horikawa, {"code": 0, "stdout": good, "traceback": False}, None) is None
    assert checker.check(horikawa, {"code": 0, "stdout": good.replace("10", "9"),
                                    "traceback": False}, None)


def test_even_eights_oracle_matches_the_program():
    st = worker.setup("recipe-sweep")
    positives = {frozenset(inputs.NODE_TOKENS[inputs.NODE_LABELS.index(lab)] for lab in s)
                 for s in st.picard.EvenEightTester().sweep()}
    assert positives == check.Checker().even_eights


def test_tail_percentile_rule():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9
    samples = list(range(1, 101))
    value, beyond = run.tail(samples, 90)
    assert (round(value, 6), beyond) == (90.1, 10)
    assert run.tail(samples, 50) == (50.5, 50)
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)
    assert set(run.TAIL_PERCENTILE.values()) <= set(run.LADDER)


def test_summary_reports_percentile_and_sample_count():
    records = [[{"op": "points"}, [3, 4], None, ms * 1_000_000] for ms in range(1, 121)]
    report = {"workload": "point-ideals", "seed": 1, "untraced": records, "rounds": 20,
              "op_time_ns": sum(r[3] for r in records), "peak_rss_kb": 2048}
    values, summary = run.metrics(report, [0.1, 0.2, 0.3], 0)
    assert "120 ops" in summary and "p90" in summary and "(12 samples beyond)" in summary
    assert values["op_p50_ms"] == (60.5, "ms")
    assert values["setup_s"] == (0.2, "s")
    assert values["peak_rss_mb"] == (2.0, "MB")


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.targets()]


def test_untraced_run_leaves_functions_untouched():
    st = worker.setup("point-ideals")
    before = _originals()
    records = []
    ops, rounds, _ = worker.run_pass(inputs.rounds("point-ideals", 4), st, records.append,
                                     rounds=1)
    assert rounds == 1 and ops == len(records) == len(inputs.POINT_KS)
    assert all(r[2] is None for r in records)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert not any(getattr(fn, "__wrapped_by_bench__", False) for _, _, fn in before)


def test_traced_pass_accounts_for_op_time_and_restores_functions():
    st = worker.setup("recipe-sweep")
    before = _originals()
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    stream = inputs.rounds("recipe-sweep", 4, INVARIANT)
    records = []
    try:
        worker.run_pass(stream, st, records.append, rounds=3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert all(r[2] is None for r in records)
    layers = spans.layer_metrics(tracer.spans, len(records))
    covered = sum(v for k, v in layers.items()
                  if k.endswith("_ms") and k != "harness.traced_op_ms")
    assert abs(covered - layers["harness.traced_op_ms"]) < 1e-6
    assert layers["picard.even_eight_test_ms"] > 0 and layers["picard.divisor_ms"] > 0
    assert layers["groebner.buchberger_ms"] == 0
    assert 0 < layers["picard.invariant_share"] < 1

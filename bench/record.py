"""Record ``expected.json`` from the program as it is now.

    python3 bench/record.py

Certifies every surface of the fixed pool in process, exactly as the
certify-batch op does, and keeps each body digest (first 16 hex digits) with
its verdict; refused draws are stored as null. It also classifies all 1820
twelve-node recipes on the bundled surface and keeps both h0 values of the
invariant ones. Every answer must pass the theory checks before anything is
written. Run it only when a change is meant to alter certificate bodies.
"""
import itertools
import json
import multiprocessing
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402


def _record_kind(kind):
    st = worker.setup("certify-batch")
    pool = inputs.surface_pool(kind)
    entries = []
    refused = 0
    for index in range(inputs.POOL_SIZE):
        try:
            op = {"op": "certify", **inputs.surface(kind, index, pool)}
        except inputs.DrawRefused:
            entries.append(None)
            refused += 1
            continue
        prepare, run, reduce = worker.HANDLERS["certify"]
        answer = reduce(run(prepare(op, st), st), op, st)
        failure = check.certificate_theory(answer)
        if failure:
            raise SystemExit(f"{kind} surface {index} ({op['roots']}): {failure}")
        entries.append(f"{answer['digest'][:16]} {answer['reason'] or 'certified'}")
    return kind, entries, refused


def _invariant_recipes():
    st = worker.setup("recipe-sweep")
    prepare, run, _ = worker.HANDLERS["twelve"]
    found = {}
    for twelve in itertools.combinations(inputs.NODE_TOKENS, 12):
        op = {"op": "twelve", "labels": list(twelve)}
        answer = run(prepare(op, st), st)
        if not answer["numerical"]:
            raise SystemExit(f"{twelve} fails the numerical conditions")
        if answer["invariant"]:
            found[" ".join(twelve)] = answer["h0"]
    return found


def main():
    # one process per pool kind
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = pool.map(_record_kind, ("symmetric", "generic"))
    invariant = _invariant_recipes()
    default = " ".join(sorted(inputs.DEFAULT_TWELVE, key=inputs.NODE_TOKENS.index))
    if len(invariant) != 24 or default not in invariant:
        raise SystemExit(f"{len(invariant)} invariant recipes; theory says 24, default included")
    expected = {
        "prime": inputs.PRIME,
        "pool_seed": inputs.POOL_SEED,
        "pool_size": inputs.POOL_SIZE,
        "surfaces": {kind: entries for kind, entries, _ in results},
        "invariant_recipes": invariant,
    }
    check.Checker(expected)  # validates the invariant count and the even eights
    with open(check.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    for kind, entries, refused in results:
        reasons = {}
        for e in entries:
            if e:
                reasons[e.split()[1]] = reasons.get(e.split()[1], 0) + 1
        print(f"{kind}: {len(entries) - refused} recorded, {refused} refused, {reasons}")
    print(f"{len(invariant)} invariant recipes")


if __name__ == "__main__":
    main()

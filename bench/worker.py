"""One workload process: set up, report ready, run the closed loop, report.

``run.py`` starts this as ``python3 bench/worker.py WORKLOAD SEED SECONDS
TRACE``. The process imports ulrichcert and does the workload's one-time
set-up, prints ``ready``, and then waits for one line on stdin: ``go`` runs
the loop, anything else exits. The time from spawn to ``ready`` is the
workload's set-up time. After ``go`` every stdout line is a JSON pair
``[tag, value]``: one ``untraced`` or ``traced`` record per op, then the
``report``.

The loop is closed with one caller: each op starts when the previous one
has returned. Inputs for a round are generated, and each op's result is
reduced to a small answer, outside the timed region. With TRACE=1 a first
pass runs untraced for half the time, then the same number of rounds runs
again with the layer wrappers installed.

Harness modules are imported only after ``ready``, so that the set-up time
covers the interpreter, the program's imports and its set-up alone.
"""
import os
import sys
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PRIME = 32003            # inputs.PRIME; inputs is not imported before ready


def setup(workload: str, seed: int = 0) -> SimpleNamespace:
    """Import what the workload calls and do its one-time program set-up."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    st = SimpleNamespace(workload=workload, seed=seed, tracer=None)
    if workload == "cli-cold":
        import ulrichcert.cli  # noqa: F401  cold import cost, as the CLI pays it
        return st
    from ulrichcert import cohomology, groebner, kummer, picard
    from ulrichcert.fields import PrimeField
    st.cohomology, st.groebner, st.kummer, st.picard = cohomology, groebner, kummer, picard
    st.gf = PrimeField(PRIME)
    if workload in ("point-ideals", "recipe-sweep"):
        st.nodes = kummer.all_node_points(kummer.default_curve(), st.gf)
        st.ring = kummer.quartic_ring(st.gf)
    if workload == "recipe-sweep":
        st.theta = picard.build_theta_star()
        st.params = picard.PolarizedSurfaceParams(4)
        st.h = picard.polarization()
    return st


def _label(token):
    return (0,) if token == "E0" else (int(token[1]), int(token[2]))


# ---------------------------------------------------------------------------
# Ops: prepare (untimed) -> run (timed) -> reduce (untimed)
# ---------------------------------------------------------------------------

def _prepare_certify(op, st):
    from fractions import Fraction
    return op["quartic"], tuple(Fraction(r) for r in op["roots"].split(","))


def _run_certify(args, st):
    text, roots = args
    kummer, picard = st.kummer, st.picard
    quartic = kummer.parse_quartic(text, st.gf)
    cert = st.cohomology.certify_ulrich(kummer.Genus2Curve(roots), quartic,
                                        picard.BundleRecipe(), picard.PolarizedSurfaceParams(4))
    return st.cohomology.certificate_document(cert)


def body_digest(body) -> str:
    import hashlib
    import json
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _reduce_certificate(doc):
    body = doc["body"]
    return {"digest": body_digest(body), "document_digest": doc["digest"],
            "nodes": body["nodes"], "verdict": body["verdict"],
            "reason": (body["refutation"] or {}).get("reason"),
            "values": {c["name"]: c["value"] for c in body["checks"]},
            "passed": {c["name"]: c["pass"] for c in body["checks"]}}


def _prepare_points(op, st):
    return [st.nodes[_label(t)] for t in op["labels"]]


def _run_points(points, st):
    gens = st.cohomology.section_basis(3, points, st.ring)
    gb = st.groebner.buchberger(gens)
    return st.groebner.hilbert_degree_codim(gb)


def _prepare_twelve(op, st):
    twelve = tuple(_label(t) for t in op["labels"])
    four = [lab for lab in st.nodes if lab not in twelve]
    return twelve, [st.nodes[lab] for lab in four], [st.nodes[lab] for lab in twelve]


def _run_twelve(args, st):
    twelve, four_points, twelve_points = args
    picard = st.picard
    m = picard.BundleRecipe(labels=twelve).divisor()
    numerical = picard.numerical_ulrich(st.params, st.h, m)
    invariant = picard.is_invariant(st.theta, m)
    h0 = None
    if invariant:
        h0 = [st.cohomology.h0_forms_through_points(1, four_points),
              st.cohomology.h0_forms_through_points(2, twelve_points)]
    return {"numerical": numerical, "invariant": invariant, "h0": h0}


def _prepare_eight(op, st):
    return [_label(t) for t in op["labels"]]


def _run_eight(labels, st):
    return st.picard.even_eight_test(labels)


def _cli_paths(op, st):
    directory = os.path.join(WORK, f"cli-{st.seed}")
    os.makedirs(directory, exist_ok=True)
    return (os.path.join(directory, f"pass{op['pass']}.ini"),
            os.path.join(directory, f"pass{op['pass']}.json"),
            os.path.join(directory, f"pass{op['pass']}-{op['command']}.trace.json"))


def _prepare_cli(op, st):
    from inputs import config_text
    config, cert, trace_out = _cli_paths(op, st)
    command = op["command"]
    if command == "certify":
        with open(config, "w") as handle:
            handle.write(config_text(op))
        if os.path.exists(cert):
            os.unlink(cert)
    argv = {"certify": ["certify", "--config", config, "--out", cert],
            "nodes": ["nodes", "--config", config],
            "descend": ["descend", cert]}.get(command, ["lattice", command])
    if st.tracer is not None:
        if os.path.exists(trace_out):
            os.unlink(trace_out)
        head = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py"), trace_out]
    else:
        head = [sys.executable, "-m", "ulrichcert.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    return head + argv, env


def _run_cli(args, st):
    import subprocess
    argv, env = args
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _reduce_cli(raw, op, st):
    code, out, err = raw
    answer = {"code": code, "stdout": out, "traceback": "Traceback" in err}
    if op["command"] == "certify":
        import json
        try:
            with open(_cli_paths(op, st)[1]) as handle:
                answer["certificate"] = _reduce_certificate(json.load(handle))
        except (OSError, ValueError) as exc:
            answer["certificate"] = {"error": str(exc)}
    return answer


HANDLERS = {
    "certify": (_prepare_certify, _run_certify, lambda raw, op, st: _reduce_certificate(raw)),
    "points": (_prepare_points, _run_points, lambda raw, op, st: list(raw)),
    "twelve": (_prepare_twelve, _run_twelve, lambda raw, op, st: raw),
    "eight": (_prepare_eight, _run_eight, lambda raw, op, st: bool(raw)),
    "cli": (_prepare_cli, _run_cli, _reduce_cli),
}


def _merge_child_spans(tracer, root_index, op, st):
    """Attach a traced CLI child's spans under the op's root span."""
    import json
    path = _cli_paths(op, st)[2]
    try:
        with open(path) as handle:
            child = json.load(handle)
    except (OSError, ValueError):
        return
    start = tracer.spans[root_index][1]
    tracer.add("cli.interpreter", start, child["main_ns"], root_index)
    tracer.add("cli.import", child["main_ns"], child["import_ns"], root_index)
    offset = len(tracer.spans)
    for name, s, e, parent, _, counts in child["spans"]:
        tracer.add(name, s, e, root_index if parent is None else parent + offset, counts)


def run_pass(stream, st, sink, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` of op time or ``rounds`` rounds.

    Each op's record ``[op, answer, error, latency_ns]`` goes to ``sink``
    as soon as the op is done, so the process keeps none of them. Returns
    (ops_run, rounds_run, op_time_ns).
    """
    count = 0
    op_time = 0
    done = 0
    while (done < rounds) if rounds is not None else (op_time < seconds * 1e9):
        batch = next(stream)
        for op in batch:
            prepare, run, reduce = HANDLERS[op["op"]]
            args = prepare(op, st)
            if tracer is not None:
                tracer.op = count
                root = tracer.begin("op")
            t0 = time.perf_counter_ns()
            try:
                raw, error = run(args, st), None
            except Exception as exc:  # a failing op is counted, the loop goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end(root, end=t1)
                if op["op"] == "cli":
                    _merge_child_spans(tracer, root, op, st)
            op_time += t1 - t0
            answer = None
            if error is None:
                try:
                    answer = reduce(raw, op, st)
                except Exception as exc:  # malformed output is a failed op
                    error = f"{type(exc).__name__}: {exc}"
            sink([{k: v for k, v in op.items() if k != "quartic"}, answer, error, t1 - t0])
            count += 1
        done += 1
    return count, done, op_time


def run(workload, seed, seconds, trace, st):
    """The measured part of a worker: returns the JSON-ready report."""
    import json
    import resource
    sys.path.insert(0, BENCH_DIR)
    import inputs
    import spans

    invariant = ()
    if workload == "recipe-sweep":
        with open(os.path.join(BENCH_DIR, "expected.json")) as handle:
            invariant = [tuple(k.split()) for k in json.load(handle)["invariant_recipes"]]
    stream = inputs.rounds(workload, seed, invariant)

    def sink(tag):
        return lambda record: sys.stdout.write(json.dumps([tag, record]) + "\n")

    report = {"workload": workload, "seed": seed, "trace": trace}
    first_seconds = seconds / 2 if trace else seconds
    _, rounds, op_time = run_pass(stream, st, sink("untraced"), seconds=first_seconds)
    report.update(rounds=rounds, op_time_ns=op_time)
    if trace:
        tracer = spans.Tracer()
        st.tracer = tracer
        if workload != "cli-cold":
            tracer.install(spans.targets())
        try:
            traced, _, _ = run_pass(stream, st, sink("traced"), rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
            st.tracer = None
        report["layers"] = spans.layer_metrics(tracer.spans, traced)
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                       "spans": tracer.spans}, handle)
        report["trace_path"] = os.path.relpath(path, ROOT)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    report["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    return report


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    st = setup(workload, seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    import json
    report = run(workload, seed, seconds, trace, st)
    sys.stdout.write(json.dumps(["report", report]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

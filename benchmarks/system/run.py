"""System benchmark of the EIS query-serving stack.

One run of one workload::

    python3 benchmarks/system/run.py --workload serve_cold --seed 1 \\
        --seconds 10 --trace 0

prints ``workload metric value unit`` lines and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  It exits 1 if any output differs
from the oracle and 2 if the ``repro`` sources are missing.

Every workload, each in a fresh child process::

    python3 benchmarks/system/run.py --seed 42 --out results.json
    python3 benchmarks/system/run.py --seed 42,7 --trace-dir traces

``--seed`` takes a comma-separated list (one run per seed and
workload); ``--out`` appends the runs to a results file and
``--trace-dir`` adds a traced run per workload, writing
``<workload>.trace.json`` and ``layers.json`` there.

Comparing two results files::

    python3 benchmarks/system/run.py compare A.json B.json
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_OUT = HERE / "out"


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _bootstrap():
    """Make the checkout's ``src/repro`` importable, or exit 2."""
    sources = ROOT / "src"
    sys.path.insert(0, str(sources))
    try:
        import repro
    except ImportError as exc:
        print("run.py: cannot import repro from %s: %s" % (sources, exc),
              file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != sources:
        print("run.py: imported repro from %s, not from %s"
              % (repro.__file__, sources), file=sys.stderr)
        sys.exit(2)
    # Pool workers import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(sources)] + [part for part in
                          os.environ.get("PYTHONPATH", "").split(os.pathsep)
                          if part])


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def listed_metrics(entries, values):
    """``{name: {"value", "unit"}}`` for the metrics ``BENCHMARK.json``
    lists, in its order."""
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in entries}


def run_one(args, spec, config):
    import harness
    from workloads import WORKLOADS

    params = config["workloads"][args.workload]
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, params, args.seconds)
    # The modeled pass always runs on the default seed's inputs.
    modeled = cls(config["default_seed"], params)
    probe = cls.probe(config["host_probe_ref_ms"])
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
    try:
        record = harness.run(workload, modeled, args.seconds, probe,
                             config["setup_reps"], tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
    record["seed"] = args.seed
    record["trace"] = bool(args.trace)
    record.pop("request_walls")
    if args.trace:
        values, bases = tracing.layer_metrics(tracer, record)
        record["layers"] = values
        record["bases"] = bases
        record["spans"] = tracer.aggregate()
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        _write_json(trace_dir / ("%s.trace.json" % args.workload),
                    tracer.chrome_trace())
        metrics = listed_metrics(spec["per_layer"], values)
    else:
        metrics = listed_metrics(spec["end_to_end"], record["metrics"])
    for name, metric in metrics.items():
        print("%s %s %r %s" % (args.workload, name, metric["value"],
                               metric["unit"]))
    for name, value in sorted(record["info"].items()):
        print("%s %s %r" % (args.workload, name, value))
    if args.out:
        _write_json(args.out, record)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, in child processes
# ---------------------------------------------------------------------------

def _result_line(lines):
    """The result object a finished run prints last, or ``None``."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "correct" in result \
        else None


def _child(workload, seed, seconds, trace, trace_dir, out):
    # A record an earlier invocation left behind must not pass for this
    # run's when the child dies before writing its own.
    out.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--trace-dir", str(trace_dir), "--out", str(out)]
    completed = subprocess.run(command, check=False, text=True,
                               stdout=subprocess.PIPE)
    lines = completed.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if completed.returncode not in (0, 1) or _result_line(lines) is None \
            or not out.exists():
        raise SystemExit("run.py: %s (seed %d) exited %d without a result"
                         % (workload, seed, completed.returncode))
    return _load_json(out)


def run_all(args, spec, config):
    scratch = Path(args.trace_dir) if args.trace_dir else DEFAULT_OUT
    scratch.mkdir(parents=True, exist_ok=True)
    seeds = [int(seed) for seed in args.seed.split(",")]
    runs = []
    layers = {}
    overhead = {}
    status = 0
    for seed in seeds:
        for name in config["workloads"]:
            out = scratch / ("%s-%d.json" % (name, seed))
            record = _child(name, seed, args.seconds, False, scratch, out)
            status |= record["failed"] > 0
            runs.append({key: record[key] for key in
                         ("workload", "seed", "attempted", "failed",
                          "metrics", "info")})
            if not args.trace_dir:
                continue
            out = scratch / ("%s-%d.traced.json" % (name, seed))
            traced = _child(name, seed, args.seconds, True, scratch, out)
            status |= traced["failed"] > 0
            overhead[name] = (record["metrics"]["ops_per_s"]
                              / traced["metrics"]["ops_per_s"])
            layers[name] = {key: traced[key] for key in
                            ("layers", "bases", "spans", "counters",
                             "counts", "seed")}
            print("%s trace_overhead %r ratio" % (name, overhead[name]))
    if args.trace_dir:
        layers["trace_overhead"] = overhead
        _write_json(scratch / "layers.json", layers)
    if args.out:
        path = Path(args.out)
        previous = _load_json(path)["runs"] if path.exists() else []
        _write_json(path, {"runs": previous + runs})
    return int(status)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = _load_json(ROOT / "BENCHMARK.json")
    config = _load_json(HERE / "config.json")
    if argv[:1] == ["compare"]:
        from compare import main as compare_main
        return compare_main(argv[1:], spec, config)
    parser = argparse.ArgumentParser(
        description="System benchmark of the EIS query-serving stack.")
    parser.add_argument("--workload", choices=sorted(config["workloads"]),
                        help="run one workload (default: all, each in "
                             "a child process)")
    parser.add_argument("--seed", default=str(config["default_seed"]),
                        help="input seed; a comma-separated list "
                             "without --workload")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="request time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", default=None,
                        help="where traces go (default %s)" % DEFAULT_OUT)
    parser.add_argument("--out", help="write (one workload) or append "
                                      "(all workloads) the run record")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.workload is None:
        return run_all(args, spec, config)
    args.seed = int(args.seed)
    args.trace_dir = args.trace_dir or DEFAULT_OUT
    return run_one(args, spec, config)


if __name__ == "__main__":
    sys.exit(main())

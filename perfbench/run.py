"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload pull-small-http --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a run that measures
half of ``--seconds`` untraced and half with span wrappers installed.
Per-layer metrics of layers a workload does not exercise read 0.

Lines before the last one are a human-readable record of the run:
generator load, check counts and the report digest.  The last line is
``{"correct", "attempted", "failed", "metrics"}`` JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import ROOT, WORK, MissingProgram, ensure_src  # noqa: E402

WORKLOADS = ("pull-small-http", "pull-large-coap", "rollout-mixed")


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_src()
    except MissingProgram as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    from perfbench.common import cpu_ticks, reference_loop_ms

    trace = bool(args.trace)
    host_before = reference_loop_ms()
    ticks_before = cpu_ticks()
    if args.workload == "rollout-mixed":
        from perfbench import rollout

        result = rollout.run(args.seed, args.seconds, trace,
                             os.path.join(WORK, str(os.getpid())))
    else:
        from perfbench import pull

        result = pull.run(args.workload, args.seed, args.seconds, trace)
    steal, total = (after - before for after, before
                    in zip(cpu_ticks(), ticks_before))
    # Host drift, not a metric: the reference loop before and after the
    # run, and the share of CPU time the hypervisor took (steal).
    result["notes"]["host"] = {
        "ref_loop_ms": [round(host_before, 2),
                        round(reference_loop_ms(), 2)],
        "steal_pct": round(100.0 * steal / total, 2) if total else 0.0}
    units = declared_metrics(trace)
    produced = result["metrics"]
    unknown = sorted(set(produced) - set(units))
    if unknown:
        print("perfbench: undeclared metrics %s" % unknown, file=sys.stderr)
        return 3
    if not trace:
        missing = sorted(set(units) - set(produced))
        if missing:
            print("perfbench: missing metrics %s" % missing,
                  file=sys.stderr)
            return 3
    absent = sorted(set(units) - set(produced))
    print("notes %s" % json.dumps(result["notes"], sort_keys=True))
    if absent:
        print("not on this workload's path (reported as 0): %s"
              % ", ".join(absent))
    metrics = {name: {"value": float(produced.get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

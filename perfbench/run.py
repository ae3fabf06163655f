"""Time-to-solution benchmark of orthomg, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload schwarz_mult_2d256 --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up and solves until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` alternates an untraced and
a traced set-up plus solve on the same inputs and reports the per-layer
metrics, with the tracing overhead; the spans go to
``perfbench/out/spans-<workload>-seed<seed>.csv``.  Every solution is
checked.  Each metric is printed on its own line with its unit and sample
count, then one JSON object as the last line.  The exit status is 1 when
any solve fails a check, 2 for bad arguments or a checkout without
``src/orthomg``.  ``--workload all`` runs every workload, each in its own
process so that peak memory stays per workload.
"""

import argparse
import json
import subprocess
import sys

import bootstrap


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bootstrap.prepare()
    # orthomg and numpy load only now, after the thread pinning above.
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}\n")
        return 2
    import harness

    workload = WORKLOADS[args.workload]
    run = harness.run_traced if args.trace else harness.run_untraced
    samples, metrics, env = run(workload, args.seed, args.seconds)
    return harness.report(workload, args.seed, args.trace, samples, metrics, env)


def run_all(args, names):
    """Run each workload in a child process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())

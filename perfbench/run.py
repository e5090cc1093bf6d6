"""Control-plane benchmark of the DUST reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload rounds-k16 --seed 0 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``rounds-k16`` -- live DUST-Manager optimization rounds on a k=16
  fat-tree with 319 clients at constructor defaults;
* ``soak-chaos`` -- many ``run_soak`` runs at their defaults (pods=4,
  hardened transport, a 600 s horizon) with ``default_soak_chaos``:
  loss, duplication, reordering, a pod partition and a manager crash.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer metrics, the self time of every layer and the tracing
overhead. Every run starts fresh interpreters, checks the program's
outputs, prints a human report and ends with one JSON line::

    {"correct": true, "attempted": 36, "failed": 3, "metrics": {...}}

The script uses only the standard library; the measured runs happen in
``perfbench/workloads.py`` child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Wall-clock budget of one benchmark invocation, children included.
BUDGET_S = 170.0
#: Fresh interpreters that only set the workload up; with the measured
#: run's own set-up they give three set-up samples, reported as median.
SETUP_PROBES = 2
#: Seconds kept back from the measured run's budget for the probes.
PROBE_RESERVE_S = 20.0
#: Program switches that select other code paths than the defaults.
REFUSED_ENV = ("REPRO_WORKERS", "REPRO_ENUM_KERNEL", "REPRO_TRACE")
TRACE_DIR = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def _reap(pgid: int) -> None:
    """Kill whatever is left of a child's process group (pool workers of
    a run that hung) and wait until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise BenchError(f"processes of group {pgid} did not exit")


def child(args, mode: str, deadline: float, *extra: str) -> dict:
    """Run one ``workloads.py`` child; relay its report, return its JSON."""
    budget = deadline - time.monotonic()
    if budget < 5.0:
        raise BenchError(f"no time left for the {mode} run")
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--deadline", f"{budget - 25.0:.1f}",
        *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        _reap(proc.pid)
        proc.communicate()
        raise BenchError(f"the {mode} run did not finish within {budget:.0f} s")
    finally:
        _reap(proc.pid)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(f"[{mode}] {line}", flush=True)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the {mode} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="DUST control-plane benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"perfbench: unset {', '.join(refused)}; it switches program paths", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        if args.trace == 0:
            res = child(args, "run", deadline - PROBE_RESERVE_S)
            setups = [res["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(child(args, "setup", deadline)["setup_s"])
            print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
            metrics = {}
            for m in spec["end_to_end"]:
                value = statistics.median(setups) if m["name"] == "setup_s" else res[m["name"]]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            wanted = [m["name"] for m in spec["end_to_end"]]
            print(f"  round_tail_s is p{res['round_tail_pct']:.1f} of {res['rounds']} rounds")
            print(
                f"  run_s is {res['units']} units at the median unit's time; "
                f"the timed phase took {res['timed_s']:.3f} s of wall time"
            )
            print(
                f"  failed {res['failed']} of {res['attempted']} attempted "
                f"(failed_frac {res['failed'] / res['attempted']:.4g}); "
                f"ledger_gap_pts {res['ledger_gap_pts']:.4g}"
            )
        else:
            base = child(args, "run", deadline, "--no-checks")
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_out = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            res = child(
                args, "traced", deadline,
                "--baseline-run-s", repr(base["timed_s"]), "--trace-out", trace_out,
            )
            metrics = res["per_layer"]
            wanted = [m["name"] for m in spec["per_layer"]]
            if not res["self_time_sum_ok"]:
                res["correct"] = False
                print("  layer self times do not sum to the traced run_s within 1%")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if sorted(metrics) != sorted(wanted):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    env = res.get("environment", {})
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name in wanted:
        print(f"  {name:<32} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(res["correct"]),
                "attempted": int(res["attempted"]),
                "failed": int(res["failed"]),
                "metrics": {n: metrics[n] for n in wanted},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

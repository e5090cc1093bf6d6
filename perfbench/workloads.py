"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script as a child process; it is not meant to be
called by hand, though it can be (from the repository root)::

    python3 perfbench/workloads.py --workload soak-chaos --seed 0 --seconds 35 --mode run

Modes: ``setup`` only sets the workload up and reports how long that
took; ``run`` sets up, runs the timed phase with the round timer as its
only instrumentation, checks the outputs and reports end-to-end metrics;
``traced`` does the same with spans recorded around the public calls of
every layer and reports per-layer metrics. The last line of standard
output is one JSON object; every line before it is a human report.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from tracing import SpanRecorder, patch_everywhere  # noqa: E402

WORKLOADS = ("rounds-k16", "soak-chaos")

# -- workload shape ---------------------------------------------------------
#: rounds-k16: fat-tree arity, STAT interval, optimization period, and the
#: share of nodes above c_max in each period (redrawn every period).
FAT_TREE_K = 16
STAT_INTERVAL_S = 15.0
PERIOD_S = 60.0
KEEPALIVE_TIMEOUT_S = 45.0
HOT_SHARE = 0.10
HOT_RANGE = (84.0, 98.0)
COOL_RANGE = (15.0, 55.0)
#: Rounds completed per second of ``--seconds``: a k=16 period (one
#: round plus the STAT/keepalive traffic around it) takes 0.8-1.1 s on a
#: 2-CPU x86 box. A fabric that raises adds one failed round on top.
ROUNDS_PER_SECOND = 0.8
#: soak-chaos: soaks per second of ``--seconds``, each over
#: SOAK_HORIZON_S of fabric time (the SoakConfig default), 0.3-0.55 s of
#: wall time on a 2-CPU x86 box. The speed of a shared box flips between
#: states every few seconds; a median over many short soaks averages the
#: flips out where a median over a few long soaks does not.
SOAK_HORIZON_S = 600.0
SOAKS_PER_SECOND = 2.0
#: Soaks timed by a traced run and by the untraced baseline it is
#: compared with.
TRACED_SOAKS = 12
#: soak-chaos reads each soak's times at a reference host speed: the
#: speed at which speedprobe.py's loop takes this long. The soak is pure
#: Python in one process, and a shared host's speed drifts by 1.3x or
#: more for a whole run at a time. The probe, memory-bound lookups in a
#: table larger than the L2 cache, follows that drift (window medians
#: correlate at 0.94) but swings less than the soak (as its 0.8th
#: power), so dividing by it removes most of the drift without turning
#: it round; tight compute loops swing about twice as much as the soak
#: and over-correct. At k=16 most of a round runs in NumPy and in the
#: pool's worker processes; each probe tried there made the spread
#: worse, so rounds-k16 reads wall time.
PROBE_REF_S = 0.010
#: Each soak's speed is the median of the probes this many soaks around
#: it (about 3 s), so that one probe caught in a momentary flip does not
#: rescale a soak on its own.
PROBE_WINDOW = 6
#: The chaos soak crashes the primary manager at this share of the horizon.
CRASH_SHARE = 0.4
#: Soak: simulated seconds allowed for in-flight messages and retries to
#: land before the ledger is compared with the clients.
SOAK_SETTLE_S = 120.0
#: rounds-k16: the timed phase stops right after the last round; its
#: messages land within milliseconds, and 5 s later no STAT or keepalive
#: is in flight.
ROUNDS_SETTLE_S = 5.0
#: rounds-k16: rounds of the first fabric re-run for the determinism check.
RERUN_ROUNDS = 3
#: Tolerances of the correctness gates. The transportation simplex stops
#: once every reduced cost is above -1e-7 (``lp.transportation._OPT_TOL``)
#: and HiGHS once its dual infeasibilities are below 1e-7, so each β may
#: sit up to 1e-7 per point of flow above the optimum; the two may differ
#: by OPT_TOL_SUM x total excess.
BETA_REL_TOL = 1e-9
FLOW_TOL = 1e-6
OPT_TOL_SUM = 2e-7


def derived_seed(seed: int, index: int) -> int:
    """The fixed derived seed sequence: rounds-k16 fabrics, soaks."""
    return seed * 1009 + index


def rounds_target(seconds: int) -> int:
    return max(12, int(round(seconds * ROUNDS_PER_SECOND)))


def soaks_target(seconds: int) -> int:
    return max(8, int(round(seconds * SOAKS_PER_SECOND)))


class SpeedProbe:
    """The host's speed now, from a speedprobe.py process started for the
    run; a call returns the probe loop's seconds."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "speedprobe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(30)
        self.proc.stdout.close()


def say(line: str = "") -> None:
    print(line, flush=True)


# -- round timer and capture hooks (every run) -------------------------------
class RoundLog:
    """Times ``DUSTManager.run_optimization_round`` at the class level, so
    a standby's promoted manager is timed too, and keeps each round's
    placement problem and report for the correctness gates."""

    def __init__(self) -> None:
        self.recording = False
        self.rounds: list = []
        self.tag = None
        self._problem = None
        self._heuristic = None

    def install(self) -> None:
        import repro.core.heuristic as heuristic_mod
        from repro.core.manager import DUSTManager
        from repro.core.placement import PlacementSession

        log = self
        timed_round = DUSTManager.run_optimization_round
        session_solve = PlacementSession.solve
        heuristic = heuristic_mod.solve_heuristic

        def run_optimization_round(manager):
            log._problem = log._heuristic = None
            start = time.perf_counter()
            report = timed_round(manager)
            wall = time.perf_counter() - start
            if log.recording:
                log.rounds.append(
                    Round(log.tag, manager.engine.now, wall, log._problem, report, log._heuristic)
                )
            return report

        def capture_problem(session, problem):
            log._problem = problem
            return session_solve(session, problem)

        def capture_heuristic(problem, *args, **kwargs):
            result = heuristic(problem, *args, **kwargs)
            log._heuristic = result
            return result

        DUSTManager.run_optimization_round = run_optimization_round
        PlacementSession.solve = capture_problem
        patch_everywhere(heuristic, capture_heuristic)


@dataclasses.dataclass
class Round:
    tag: object
    sim_t: float
    wall: float
    problem: object
    report: object
    heuristic: object

    @property
    def offered(self) -> float:
        return float(self.report.total_excess) if self.report is not None else 0.0

    @property
    def placed(self) -> float:
        if self.report is None:
            return 0.0
        if self.report.feasible:
            return float(sum(a.amount_pct for a in self.report.assignments))
        if self.heuristic is not None:
            return float(sum(a.amount_pct for a in self.heuristic.assignments))
        return 0.0

    def signature(self) -> tuple:
        if self.problem is None:
            return (round(self.sim_t, 6), None)
        return (
            round(self.sim_t, 6),
            tuple(self.problem.busy),
            tuple(self.problem.candidates),
            float(self.report.objective_beta).hex(),
        )


# -- counters read from the program's public objects ------------------------
class Tally:
    """Sums of the public counters of every manager, client, network and
    engine a run built."""

    def __init__(self) -> None:
        self.values = dict.fromkeys(
            (
                "manager.offload_requests",
                "manager.offloads_established",
                "manager.offloads_rejected",
                "client.stats_sent",
                "client.keepalives_sent",
                "engine.events",
                "network.sent",
                "network.dropped",
                "network.duplicated",
                "transport.duplicates_ignored",
            ),
            0,
        )

    def add(self, managers, clients, network, engine_events: int) -> None:
        v = self.values
        for manager in managers:
            c = manager.counters
            v["manager.offload_requests"] += c.offload_requests_sent
            v["manager.offloads_established"] += c.offloads_established
            v["manager.offloads_rejected"] += c.offloads_rejected
            v["transport.duplicates_ignored"] += c.duplicates_ignored
        for client in clients:
            v["client.stats_sent"] += client.stats_sent
            v["client.keepalives_sent"] += client.keepalives_sent
            v["transport.duplicates_ignored"] += client.duplicates_ignored
        v["network.sent"] += network.messages_sent
        v["network.dropped"] += network.messages_dropped
        v["network.duplicated"] += getattr(network, "duplicates_injected", 0)
        v["engine.events"] += engine_events


def ledger_gap_pts(manager, clients) -> float:
    """Mean per-node gap, in capacity points, between what the clients
    say they offload and host and what the manager's ledger holds."""
    offloaded: dict = {}
    hosted: dict = {}
    for row in manager.ledger.active:
        offloaded[row.source] = offloaded.get(row.source, 0.0) + row.amount_pct
        hosted[row.destination] = hosted.get(row.destination, 0.0) + row.amount_pct
    gap = 0.0
    alive = [c for c in clients.values() if c.alive]
    for client in alive:
        gap += abs(client.offloaded_amount - offloaded.get(client.node_id, 0.0))
        gap += abs(client.hosted_amount - hosted.get(client.node_id, 0.0))
    return gap / max(1, len(alive))


# -- correctness gates ------------------------------------------------------
class Gates:
    def __init__(self) -> None:
        self.results: list = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def report(self) -> None:
        for name, ok, detail in self.results:
            say(f"  gate {name:<28} {'ok' if ok else 'FAILED'}  {detail}")


def check_round_reports(rounds, gates: Gates) -> None:
    """Flows meet every busy node's excess, respect every candidate's
    spare capacity, and β equals Σ flow·Trmin."""
    checked = worst_beta = worst_flow = 0.0
    for r in rounds:
        rep, prob = r.report, r.problem
        if rep is None or prob is None or not rep.feasible:
            continue
        checked += 1
        out = dict.fromkeys(prob.busy, 0.0)
        into = dict.fromkeys(prob.candidates, 0.0)
        beta = 0.0
        for a in rep.assignments:
            out[a.busy] += a.amount_pct
            into[a.candidate] += a.amount_pct
            beta += a.amount_pct * a.response_time_s
        for b, cs in zip(prob.busy, prob.cs):
            worst_flow = max(worst_flow, abs(out[b] - cs))
        for c, cd in zip(prob.candidates, prob.cd):
            worst_flow = max(worst_flow, into[c] - cd)
        worst_beta = max(
            worst_beta, abs(beta - rep.objective_beta) / max(abs(rep.objective_beta), 1e-300)
        )
    gates.check(
        "round reports consistent",
        worst_beta <= BETA_REL_TOL and worst_flow <= FLOW_TOL,
        f"{int(checked)} LP rounds, max |flow err| {worst_flow:.2e} pts, "
        f"max β rel err {worst_beta:.2e}",
    )


def check_against_highs(rounds, gates: Gates) -> None:
    """Re-solve a fixed sample of recorded problems with HiGHS: same
    feasibility, and β within both solvers' optimality tolerances."""
    from repro.core.placement import PlacementEngine
    from repro.routing.response_time import PathEngine, ResponseTimeModel

    with_problem = [r for r in rounds if r.problem is not None]
    if not with_problem:
        gates.check("β matches HiGHS", False, "no round had a placement problem")
        return
    picks = sorted({0, len(with_problem) // 2, len(with_problem) - 1})
    agree, worst = True, 0.0  # worst |Δβ| as a share of its allowance
    for i in picks:
        r = with_problem[i]
        engine = PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=r.problem.max_hops),
            lp_backend="scipy",
        )
        ref = engine.solve(r.problem)
        if ref.feasible != r.report.feasible:
            agree = False
        elif ref.feasible:
            allowed = OPT_TOL_SUM * r.problem.total_excess
            worst = max(worst, abs(r.report.objective_beta - ref.objective_beta) / allowed)
    gates.check(
        "β matches HiGHS",
        agree and worst <= 1.0,
        f"rounds {picks} of {len(with_problem)}, feasibility agrees {agree}, "
        f"max |Δβ| {worst:.2e} of the solvers' tolerance",
    )


# -- rounds-k16 -------------------------------------------------------------
class Fabric:
    """A k=16 fat-tree with one manager and a client on every other node,
    built with constructor defaults as in examples/datacenter_offload.py."""

    def __init__(self, fseed: int, periods: int) -> None:
        from repro import (
            DUSTClient,
            DUSTManager,
            LinkUtilizationModel,
            MessageNetwork,
            SimulationEngine,
            ThresholdPolicy,
            build_fat_tree,
        )

        self.seed = fseed
        self.topology = build_fat_tree(FAT_TREE_K)
        LinkUtilizationModel(low=0.2, high=0.7, seed=fseed).apply(self.topology)
        self.policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        self.engine = SimulationEngine()
        self.network = MessageNetwork(self.topology, self.engine)
        self.manager = DUSTManager(
            node_id=0,
            topology=self.topology,
            engine=self.engine,
            network=self.network,
            policy=self.policy,
            update_interval_s=STAT_INTERVAL_S,
            optimization_period_s=PERIOD_S,
            keepalive_timeout_s=KEEPALIVE_TIMEOUT_S,
        )
        self.manager.start()
        # Piecewise-constant base load, one value per node per period.
        # Each period a fresh hot set of exactly HOT_SHARE of the clients
        # sits above c_max; periods are drawn in order, so a longer run
        # extends a shorter one's schedule.
        rng = np.random.default_rng(fseed)
        n = self.topology.num_nodes
        hot_count = int(round(HOT_SHARE * (n - 1)))
        schedule = np.empty((periods, n))
        for p in range(periods):
            schedule[p] = rng.uniform(*COOL_RANGE, n)
            hot = 1 + rng.permutation(n - 1)[:hot_count]
            schedule[p, hot] = rng.uniform(*HOT_RANGE, hot_count)
        self.clients = {}
        for node in range(1, n):
            row = schedule[:, node].tolist()
            last = periods - 1
            client = DUSTClient(
                node_id=node,
                engine=self.engine,
                network=self.network,
                manager_node=0,
                policy=self.policy,
                base_capacity=lambda t, row=row: row[min(int(t // PERIOD_S), last)],
                data_mb=10.0,
                num_agents=10,
            )
            client.start()
            self.clients[node] = client


def drive_fabric(fabric: Fabric, log: RoundLog, budget: int, failures: list, periods: list) -> bool:
    """Advance one fabric period by period until ``budget`` more rounds
    completed or it raised. A raise is recorded as one failed round;
    returns whether the fabric raised. Appends (wall seconds, events,
    round seconds, peak RSS MB) of every period that completed a round
    to ``periods``."""
    log.tag = fabric.seed
    done = 0
    engine = fabric.engine
    for step in range(1, budget + 3):
        before, events = len(log.rounds), engine.events_processed
        start = time.perf_counter()
        try:
            # Events up to and including this period's round.
            engine.run_until(step * PERIOD_S)
        except Exception as exc:  # a program fault ends this fabric
            failures.append(
                {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "sim_t": engine.now,
                    "fabric_seed": fabric.seed,
                }
            )
            return True
        if len(log.rounds) > before:
            wall = time.perf_counter() - start
            periods.append(
                (wall, engine.events_processed - events, mean_round_s(log.rounds[before:]), peak_rss_mb())
            )
        done += len(log.rounds) - before
        if done >= budget:
            return False
    failures.append(
        {"type": "NoRound", "message": "no optimization round ran for two periods",
         "sim_t": engine.now, "fabric_seed": fabric.seed}
    )
    return True


class Timer:
    """Accumulates the timed phase; rounds are recorded, and spans when
    tracing, only inside it."""

    def __init__(self, log: RoundLog, rec) -> None:
        self.log, self.rec = log, rec
        self.seconds = 0.0
        self._started = None

    def elapsed(self) -> float:
        """Timed seconds so far, including a segment still running."""
        running = self._started
        return self.seconds + (time.perf_counter() - running if running else 0.0)

    def run(self, fn, *args):
        self.log.recording = True
        if self.rec is not None:
            fn = self.rec.wrap("bench.timed_phase", "bench", fn)
            self.rec.enabled = True
        self._started = start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start
            self._started = None
            self.log.recording = False
            if self.rec is not None:
                self.rec.enabled = False


class RoundsRun:
    """rounds-k16: a fixed number of completed rounds over a fixed
    sequence of fabrics. A fabric that raises costs one failed round and
    is replaced by a fresh one built from the next derived seed."""

    def __init__(self, seed: int, seconds: int, log: RoundLog) -> None:
        self.seed, self.log = seed, log
        self.target = rounds_target(seconds)
        self.schedule = self.target + 3
        self.failures: list = []
        self.periods: list = []
        self.tally = Tally()
        self.fabrics_built = 0
        self.gap_samples: list = []
        self.first = None

    @property
    def attempted(self) -> int:
        return len(self.log.rounds) + len(self.failures)

    def build(self) -> Fabric:
        fabric = Fabric(derived_seed(self.seed, self.fabrics_built), self.schedule)
        self.fabrics_built += 1
        return fabric

    def run(self, timer: Timer) -> None:
        fabric, self.first = self.first, None
        while True:
            raised = timer.run(
                drive_fabric, fabric, self.log, self.target - len(self.log.rounds),
                self.failures, self.periods,
            )
            events = fabric.engine.events_processed
            if not raised:
                # Ended normally: let in-flight messages land, then audit.
                try:
                    fabric.engine.run_until(fabric.engine.now + ROUNDS_SETTLE_S)
                    self.gap_samples.append(ledger_gap_pts(fabric.manager, fabric.clients))
                except Exception as exc:  # past the last round: not a round failure
                    say(f"  while settling: {type(exc).__name__}: {exc}")
            self.tally.add([fabric.manager], fabric.clients.values(), fabric.network, events)
            # Managers, clients and the network form reference cycles;
            # free a finished fabric now rather than at some later
            # collection inside a timed round.
            fabric = None
            gc.collect()
            # A fabric that raises before its first round adds a failure
            # and no round; stop after as many fabrics as rounds.
            if len(self.log.rounds) >= self.target or self.fabrics_built >= self.target:
                return
            fabric = self.build()

    def rerun_matches(self):
        """Re-run the first fabric for its first rounds and compare busy
        sets, candidate sets, β bits and any failure with the timed run."""
        first_seed = derived_seed(self.seed, 0)
        original = [r.signature() for r in self.log.rounds if r.tag == first_seed]
        orig_fail = [
            (f["type"], f["message"], f["sim_t"])
            for f in self.failures
            if f["fabric_seed"] == first_seed
        ]
        saved = self.log.rounds
        self.log.rounds = []
        fails: list = []
        self.log.recording = True
        try:
            drive_fabric(Fabric(first_seed, self.schedule), self.log, RERUN_ROUNDS, fails, [])
        finally:
            self.log.recording = False
            rerun = [r.signature() for r in self.log.rounds]
            self.log.rounds = saved
        same = rerun == original[: len(rerun)]
        if fails:
            same = same and orig_fail[:1] == [(fails[0]["type"], fails[0]["message"], fails[0]["sim_t"])]
        return same, len(rerun), bool(fails)


def run_rounds(args, log: RoundLog, rec, gates: Gates, watch: dict) -> dict:
    run = RoundsRun(args.seed, args.seconds, log)
    run.first = run.build()
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    timer = Timer(log, rec)
    watch.update(run=run, timer=timer, setup_s=setup_s)
    run.run(timer)
    # Peak RSS through set-up and the run's first round. A manager's route
    # cache then grows the process by about 6 MB a round until it holds
    # 16 entries, so a peak read later measures how long the seed's
    # fabrics lived before raising (t=240 s to t=1 620 s seen).
    peak_rss = run.periods[0][3] if run.periods else peak_rss_mb()

    for f in run.failures:
        say(
            f"  failed round: {f['type']}: {f['message']} at t={f['sim_t']:.4f} s "
            f"(fabric seed {f['fabric_seed']})"
        )
    rounds = log.rounds
    busy = [len(r.problem.busy) for r in rounds if r.problem is not None]
    say(
        f"  rounds attempted {run.attempted}, completed {len(rounds)}, failed {len(run.failures)}, "
        f"fabrics {run.fabrics_built}, mean busy per round {statistics.fmean(busy or [0]):.1f}"
    )
    if not args.no_checks:
        check_round_reports(rounds, gates)
        check_against_highs(rounds, gates)
        same, n, crashed = run.rerun_matches()
        gates.check(
            "rerun reproduces rounds",
            same,
            f"fabric 0, {n} rounds{' and its failure' if crashed else ''}: "
            "busy set, candidate set, β bits",
        )

    tally = dict(run.tally.values)
    units = [(wall, events / wall, r) for wall, events, r, _ in run.periods]
    result = common_metrics(rounds, units, timer.seconds, setup_s, peak_rss)
    result["attempted"] = run.attempted
    result["failed"] = len(run.failures)
    result["failures"] = run.failures
    result["ledger_gap_pts"] = statistics.fmean(run.gap_samples) if run.gap_samples else 0.0
    result["tally"] = tally
    result["takeover_at_s"] = 0.0
    return result


# -- soak-chaos ---------------------------------------------------------------
def soak_config(args, index: int):
    from repro.simulation.soak import SoakConfig, default_soak_chaos

    return SoakConfig(
        seed=derived_seed(args.seed, index),
        horizon_s=SOAK_HORIZON_S,
        chaos=default_soak_chaos(crash_at=CRASH_SHARE * SOAK_HORIZON_S),
    )


def soak_fingerprint(result, rounds) -> tuple:
    return (
        result.events_generated,
        result.events_applied,
        tuple(sorted(result.rejected_by_tier.items())),
        tuple(sorted(result.shed_by_tier.items())),
        tuple(sorted(dataclasses.asdict(result.counters).items())),
        result.took_over_at,
        int(result.ladder_max_level),
        tuple(result.drift_samples),
        tuple(r.signature() for r in rounds),
    )


def run_soak_workload(args, log: RoundLog, rec, gates: Gates, watch: dict) -> dict:
    from repro.core.audit import audit_system
    from repro.simulation.soak import run_soak

    # A traced run, and the untraced baseline it is compared with, time
    # only the first TRACED_SOAKS soaks.
    count = soaks_target(args.seconds)
    if args.no_checks or rec is not None:
        count = min(count, TRACED_SOAKS)
    configs = [soak_config(args, i) for i in range(count)]
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    timer = Timer(log, rec)
    soaks: list = []
    probes: list = []
    progress = {
        "count": count, "soaks": soaks, "probes": probes,
        "generated": [], "attempted": 0, "failed": 0,
    }
    watch.update(timer=timer, soak=progress, setup_s=setup_s)
    log.rounds = []
    tally = Tally()
    attempted = losses = unconserved = 0
    admitted = rejected_all = shed_all = max_level = 0
    peak_rss = 0.0
    speed = SpeedProbe()
    try:
        probes.append(speed())
        for i, config in enumerate(configs):
            before, timed = len(log.rounds), timer.seconds
            log.tag = config.seed
            result = timer.run(run_soak, config)
            probes.append(speed())
            soaks.append(
                (
                    timer.seconds - timed,
                    result.events_applied / result.wall_seconds,
                    [r.wall for r in log.rounds[before:]],
                )
            )
            peak_rss = max(peak_rss, peak_rss_mb())
            rejected = sum(result.rejected_by_tier.values())
            shed = sum(result.shed_by_tier.values())
            attempted += result.events_generated
            rejected_all += rejected
            shed_all += shed
            losses += result.production_losses
            unconserved += result.events_generated - result.events_applied - rejected - shed
            admitted += sum(result.gate.admitted.values())
            progress["generated"].append(result.events_generated)
            progress.update(attempted=attempted, failed=rejected_all + shed_all)
            max_level = max(max_level, int(result.ladder_max_level))
            managers = [result.manager]
            if result.standby is not None and result.standby.manager is not None:
                managers.append(result.standby.manager)
            tally.add(managers, result.clients.values(), result.network, result.engine.events_processed)
            if i == 0:
                first, first_rounds = result, log.rounds[before:]
                fingerprint = soak_fingerprint(result, first_rounds)
            # A finished soak's fabric is garbage; collect it between soaks,
            # not inside the next one.
            result = managers = None
            gc.collect()
    finally:
        speed.close()
    rounds = log.rounds
    say(
        f"  {count} soaks of {SOAK_HORIZON_S:.0f} s: events generated {attempted}, "
        f"rejected or shed {rejected_all + shed_all}; timed phase {timer.seconds:.3f} s; "
        f"probe median {1e3 * statistics.median(probes):.3f} ms "
        f"(min {1e3 * min(probes):.3f}, max {1e3 * max(probes):.3f}; "
        f"{1e3 * PROBE_REF_S:.0f} ms is reference speed)"
    )

    result = first
    result.engine.run_until(SOAK_HORIZON_S + SOAK_SETTLE_S)
    active = result.manager
    if result.standby is not None and result.standby.manager is not None:
        active = result.standby.manager
    gap = ledger_gap_pts(active, result.clients)
    audit = audit_system(active, result.clients)
    say(
        f"  first soak, {SOAK_SETTLE_S:.0f} s after the horizon: ledger_gap_pts {gap:.4g}, "
        f"audit_system {'clean' if audit.clean else f'{len(audit.violations)} violations'}; "
        f"final_drift {result.final_drift:.3f} (one sample, not a gate); "
        f"takeover at {result.took_over_at}"
    )
    if not args.no_checks:
        gates.check("no production losses", losses == 0, f"production events rejected or shed: {losses}")
        gates.check(
            "events conserved",
            unconserved == 0,
            f"generated - applied - rejected - shed = {unconserved} over {count} soaks",
        )
        check_round_reports(rounds, gates)
        check_against_highs(first_rounds, gates)
        log.rounds = []
        log.recording = True
        try:
            again = run_soak(configs[0])
        finally:
            log.recording = False
        gates.check(
            "rerun reproduces soak",
            soak_fingerprint(again, log.rounds) == fingerprint,
            f"first soak: counters, drift samples and {len(first_rounds)} rounds' "
            "busy/candidate sets and β bits",
        )
        del again
        log.rounds = rounds

    values = dict(tally.values)
    values["soak.gate_admitted"] = admitted
    values["soak.gate_rejected"] = rejected_all
    values["soak.gate_shed"] = shed_all
    values["soak.ladder_max_level"] = max_level

    units, round_walls = reference_units(soaks, probes)
    out = common_metrics(rounds, units, timer.seconds, setup_s, peak_rss, round_walls)
    out["attempted"] = attempted
    out["failed"] = rejected_all + shed_all
    out["failures"] = []
    out["ledger_gap_pts"] = gap
    out["tally"] = values
    out["takeover_at_s"] = float(first.took_over_at or 0.0)
    return out


def reference_units(soaks, probes):
    """Soak units and round latencies in reference seconds. ``soaks`` holds
    each soak's (wall seconds, events per second, round wall times);
    ``probes`` the probe times before the first soak and after each."""
    units, round_walls = [], []
    for i, (wall, rate, walls) in enumerate(soaks):
        lo = max(0, min(i + 1 - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        scale = PROBE_REF_S / statistics.median(probes[lo: lo + PROBE_WINDOW])
        walls = [w * scale for w in walls]
        round_walls.extend(walls)
        units.append((wall * scale, rate / scale, statistics.fmean(walls) if walls else None))
    return units, round_walls


# -- metrics ----------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_of(walls) -> tuple:
    """The highest percentile with at least 10 rounds above it: the 11th
    slowest round; returns (value, percentile)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def mean_round_s(rounds) -> float:
    return statistics.fmean(r.wall for r in rounds) if rounds else None


def common_metrics(rounds, units, timed_s, setup_s, peak_rss, round_walls=None) -> dict:
    """End-to-end metrics from the completed rounds and the run's units
    (60 s periods or soaks), each a (seconds, events per second, mean
    round seconds) triple, and the round latencies (by default the
    rounds' wall times). Per-unit medians hold still while the speed of
    a shared box flips between states: ``run_s`` is the timed phase at
    the median unit's speed (``timed_s`` as the clock saw it),
    ``round_p50_s`` the median unit's mean round latency, which on
    rounds-k16, one round per period, is the median round."""
    walls = [r.wall for r in rounds] if round_walls is None else round_walls
    tail, pct = tail_of(walls)
    offered = sum(r.offered for r in rounds)
    return {
        "setup_s": setup_s,
        "run_s": len(units) * statistics.median(u[0] for u in units),
        "timed_s": timed_s,
        "units": len(units),
        "round_p50_s": statistics.median(u[2] for u in units if u[2] is not None),
        "round_tail_s": tail,
        "round_tail_pct": pct,
        "rounds": len(walls),
        "events_per_s": statistics.median(u[1] for u in units),
        "relief_frac": sum(r.placed for r in rounds) / offered if offered > 0 else 0.0,
        "peak_rss_mb": peak_rss,
    }


# -- traced run -------------------------------------------------------------
class Traced(SpanRecorder):
    """Span recorder wired to every layer's public calls, plus the few
    counts only a wrapper can see (pairs priced, LP pivots, senders)."""

    #: Callbacks handed to ``SimulationEngine.schedule_at``, by label.
    EVENT_LAYERS = (
        ("msg ", "simulation.network_sim", "network.deliver"),
        ("stat-", "core.client", "client.stat_tick"),
        ("ka-", "core.client", "client.keepalive_tick"),
        ("reannounce-", "core.client", "client.reannounce"),
        ("manager-", "core.manager", "manager.timer"),
        ("retx-", "core.messages", "transport.retx_timer"),
        ("standby-", "core.failover", "failover.watchdog"),
        ("soak-", "simulation.soak", "soak.event"),
    )
    #: Receivers handed to ``MessageNetwork.register``, by owner class.
    RECEIVER_LAYERS = {
        "DUSTManager": ("core.manager", "manager.receive"),
        "DUSTClient": ("core.client", "client.receive"),
        "StandbyManager": ("core.failover", "failover.receive"),
    }

    def __init__(self) -> None:
        super().__init__()
        self.counts = dict.fromkeys(
            ("trmin.pairs", "trmin.cache_hits", "trmin.incremental", "trmin.parallel",
             "lp.pivots", "lp.warm_offered", "lp.warm_hits"),
            0,
        )
        self.senders: list = []

    @property
    def run_s(self) -> float:
        """Traced timed phase: the summed root spans."""
        return self.summary().get("bench.timed_phase", {}).get("s", 0.0)

    def install(self) -> None:
        import repro.core.failover as failover
        import repro.core.heuristic as heuristic
        import repro.core.manager as manager
        import repro.core.messages as messages
        import repro.core.nmdb as nmdb
        import repro.core.placement as placement
        import repro.core.zoning  # noqa: F401  (binds map_with_pool_retry)
        import repro.obs as obs
        import repro.obs.registry as registry
        import repro.parallel as parallel
        import repro.routing.engine as rengine
        import repro.simulation.engine as sengine
        import repro.simulation.network_sim as netsim
        import repro.simulation.profiles as profiles
        import repro.simulation.soak as soak

        rec, counts = self, self.counts

        # -- count hooks, innermost; they count only inside the timed phase --
        price = rengine.TrminEngine.resistance_matrix

        def resistance_matrix(engine, topology, sources, destinations, *a, **k):
            s0 = dataclasses.replace(engine.stats)
            out = price(engine, topology, sources, destinations, *a, **k)
            if rec.enabled:
                s1 = engine.stats
                counts["trmin.pairs"] += len(sources) * len(destinations)
                # Calls, not events: one call may run several fan-outs.
                counts["trmin.cache_hits"] += s1.cache_hits > s0.cache_hits
                counts["trmin.incremental"] += s1.incremental_updates > s0.incremental_updates
                counts["trmin.parallel"] += s1.parallel_computes > s0.parallel_computes
            return out

        transport_solve = placement.solve_transportation

        def solve_transportation(problem, *a, warm_start=None, **k):
            result = transport_solve(problem, *a, warm_start=warm_start, **k)
            if rec.enabled:
                counts["lp.pivots"] += result.iterations
                if warm_start is not None:
                    counts["lp.warm_offered"] += 1
                    counts["lp.warm_hits"] += int(result.warm_started)
            return result

        sender_init = messages.ReliableSender.__init__

        def reliable_sender_init(sender, *a, **k):
            sender_init(sender, *a, **k)
            if rec.enabled:
                rec.senders.append(sender)

        rengine.TrminEngine.resistance_matrix = resistance_matrix
        placement.solve_transportation = solve_transportation
        messages.ReliableSender.__init__ = reliable_sender_init

        # -- spans --
        pm = self.patch_method
        pm(sengine.SimulationEngine, "run_until", "engine.run_until", "simulation.engine")
        pm(manager.DUSTManager, "run_optimization_round", "manager.round", "core.manager")
        pm(manager.DUSTManager, "run_keepalive_sweep", "manager.keepalive_sweep", "core.manager")
        pm(nmdb.NMDB, "snapshot", "nmdb.snapshot", "core.nmdb")
        pm(nmdb.NMDB, "apply_stat", "nmdb.apply_stat", "core.nmdb")
        pm(placement.PlacementSession, "solve", "placement.session_solve", "core.placement", "placement")
        pm(placement.PlacementEngine, "solve", "placement.solve", "core.placement", "placement")
        pm(rengine.TrminEngine, "resistance_matrix", "trmin.price", "routing.engine")
        pm(netsim.MessageNetwork, "send", "network.send", "simulation.network_sim", "network.send")
        pm(netsim.FaultyNetwork, "send", "network.send", "simulation.network_sim", "network.send")
        pm(netsim.MessageNetwork, "broadcast", "network.broadcast", "simulation.network_sim", "network.send")
        pm(messages.ReliableSender, "send", "transport.send", "core.messages")
        pm(messages.ReliableSender, "acknowledge", "transport.acknowledge", "core.messages")
        pm(messages.DedupCache, "check", "transport.dedup_check", "core.messages")
        pm(messages.DedupCache, "remember", "transport.dedup_remember", "core.messages")
        pm(profiles.ArrivalProcess, "next_arrival", "arrivals.next", "simulation.profiles")
        pm(failover.SnapshotStore, "save", "failover.save", "core.failover")
        pm(failover.StandbyManager, "takeover", "failover.takeover", "core.failover")
        for cls, attrs in (
            (registry.MetricsRegistry, ("counter", "gauge", "histogram")),
            (registry.Counter, ("inc", "set_max")),
            (registry.Gauge, ("set",)),
            (registry.Histogram, ("observe",)),
        ):
            for attr in attrs:
                pm(cls, attr, f"obs.{cls.__name__}.{attr}", "obs", "obs")
        pf = self.patch_function
        pf(nmdb, "classify_network", "roles.classify", "core.roles")
        pf(parallel, "map_with_pool_retry", "pool.map", "parallel")
        pf(placement, "solve_transportation", "lp.transportation", "lp.transportation")
        pf(heuristic, "solve_heuristic", "heuristic.solve", "core.heuristic")
        pf(soak, "run_soak", "soak.run_soak", "simulation.soak")
        pf(obs, "mirror_counters", "obs.mirror_counters", "obs", "obs")
        pf(obs, "get_registry", "obs.get_registry", "obs", "obs")

        # Handlers are private; they reach the engine and the network
        # through public entry points, so wrap them there. The event
        # loop's own self time is then only dispatch.
        schedule_at = sengine.SimulationEngine.schedule_at
        register = netsim.MessageNetwork.register

        def traced_schedule_at(engine, when, handler, label=""):
            for prefix, layer, name in rec.EVENT_LAYERS:
                if label.startswith(prefix):
                    return schedule_at(engine, when, rec.wrap(name, layer, handler), label)
            handler = rec.wrap("engine.other_event", "simulation.engine", handler)
            return schedule_at(engine, when, handler, label)

        def traced_register(network, node_id, receiver):
            owner = type(getattr(receiver, "__self__", None)).__name__
            layer, name = rec.RECEIVER_LAYERS.get(
                owner, ("simulation.network_sim", "network.receiver")
            )
            return register(network, node_id, rec.wrap(name, layer, receiver))

        sengine.SimulationEngine.schedule_at = traced_schedule_at
        netsim.MessageNetwork.register = traced_register


def per_layer_metrics(res: dict, rec: Traced, baseline_run_s: float):
    """The per-layer metrics of BENCHMARK.json, and self time by layer."""
    spans = rec.summary()

    def total(key, names=None, group=None, layer=None):
        return sum(
            info[key]
            for n, info in spans.items()
            if (names is None or n in names)
            and (group is None or info["group"] == group)
            and (layer is None or info["layer"] == layer)
        )

    def frac(a, b):
        return a / b if b else 0.0

    c, t = rec.counts, res["tally"]
    trmin_calls = total("calls", ("trmin.price",))
    lp_calls = total("calls", ("lp.transportation",))
    oracle = rec.outside("placement.solve", "manager.round")
    retx = sum(s.retransmissions for s in rec.senders)
    established = t["manager.offloads_established"]
    rejected = t["manager.offloads_rejected"]
    layer_self: dict = {}
    for info in spans.values():
        layer_self[info["layer"]] = layer_self.get(info["layer"], 0.0) + info["self_s"]
    m = {
        "failed_frac": (frac(res["failed"], res["attempted"]), "frac"),
        "relief_frac": (res["relief_frac"], "frac"),
        "ledger_gap_pts": (res["ledger_gap_pts"], "pts"),
        "manager.round_self_s": (total("self_s", ("manager.round",)), "s"),
        "manager.offload_requests": (t["manager.offload_requests"], "count"),
        "manager.offloads_established": (established, "count"),
        "manager.reject_frac": (frac(rejected, established + rejected), "frac"),
        "nmdb.snapshot_calls": (total("calls", ("nmdb.snapshot",)), "count"),
        "nmdb.snapshot_s": (total("s", ("nmdb.snapshot",)), "s"),
        "nmdb.stat_calls": (total("calls", ("nmdb.apply_stat",)), "count"),
        "nmdb.stat_s": (total("s", ("nmdb.apply_stat",)), "s"),
        "placement.calls": (total("calls", group="placement"), "count"),
        "placement.s": (total("s", group="placement"), "s"),
        "trmin.calls": (trmin_calls, "count"),
        "trmin.pairs": (c["trmin.pairs"], "count"),
        "trmin.s": (total("s", ("trmin.price",)), "s"),
        "trmin.cache_hit_frac": (frac(c["trmin.cache_hits"], trmin_calls), "frac"),
        "trmin.incremental_frac": (frac(c["trmin.incremental"], trmin_calls), "frac"),
        "trmin.parallel_frac": (frac(c["trmin.parallel"], trmin_calls), "frac"),
        "pool.calls": (total("calls", ("pool.map",)), "count"),
        "pool.s": (total("s", ("pool.map",)), "s"),
        "lp.calls": (lp_calls, "count"),
        "lp.s": (total("s", ("lp.transportation",)), "s"),
        "lp.pivots_per_call": (frac(c["lp.pivots"], lp_calls), "count"),
        "lp.warm_hit_frac": (frac(c["lp.warm_hits"], c["lp.warm_offered"]), "frac"),
        "heuristic.calls": (total("calls", ("heuristic.solve",)), "count"),
        "heuristic.s": (total("s", ("heuristic.solve",)), "s"),
        "client.stats_sent": (t["client.stats_sent"], "count"),
        "client.keepalives_sent": (t["client.keepalives_sent"], "count"),
        "engine.events": (t["engine.events"], "count"),
        "engine.events_per_s": (frac(t["engine.events"], total("s", ("engine.run_until",))), "1/s"),
        "network.sent": (t["network.sent"], "count"),
        "network.dropped": (t["network.dropped"], "count"),
        "network.duplicated": (t["network.duplicated"], "count"),
        "network.send_s": (total("s", group="network.send"), "s"),
        "transport.retransmissions": (retx, "count"),
        "transport.gave_up": (sum(s.gave_up for s in rec.senders), "count"),
        "transport.retx_per_send": (frac(retx, total("calls", ("transport.send",))), "frac"),
        "transport.duplicates_ignored": (t["transport.duplicates_ignored"], "count"),
        "arrivals.calls": (total("calls", ("arrivals.next",)), "count"),
        "arrivals.s": (total("s", ("arrivals.next",)), "s"),
        "soak.driver_self_s": (layer_self.get("simulation.soak", 0.0), "s"),
        "soak.gate_admitted": (t.get("soak.gate_admitted", 0), "count"),
        "soak.gate_rejected": (t.get("soak.gate_rejected", 0), "count"),
        "soak.gate_shed": (t.get("soak.gate_shed", 0), "count"),
        "soak.ladder_max_level": (t.get("soak.ladder_max_level", 0), "level"),
        "soak.oracle_calls": (len(oracle), "count"),
        "soak.oracle_s": (float(oracle.sum()), "s"),
        "failover.persist_calls": (total("calls", ("failover.save",)), "count"),
        "failover.persist_s": (total("s", ("failover.save",)), "s"),
        "failover.takeover_at_s": (res["takeover_at_s"], "s"),
        "obs.registry_calls": (total("calls", group="obs"), "count"),
        "obs.registry_s": (total("s", group="obs"), "s"),
        "trace.overhead_frac": (frac(rec.run_s, baseline_run_s) - 1.0, "frac"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}, layer_self


# -- entry point --------------------------------------------------------------
def environment() -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def on_hang(args, log: RoundLog, watch: dict) -> None:
    """Runs on a timer thread when the run overruns its wall-clock
    budget: dump every thread's stack, then report what finished. The
    rounds, or the soaks' events, the hang kept from running count as
    failed."""
    say(f"  run exceeded its {args.deadline:.0f} s wall-clock budget; thread stacks follow on stderr")
    faulthandler.dump_traceback(all_threads=True)
    timer, rounds, round_walls = watch.get("timer"), list(log.rounds), None
    hang = {"type": "Hang", "message": f"over {args.deadline:.0f} s"}
    run, soak = watch.get("run"), watch.get("soak")
    if run is not None:
        units = [(wall, events / wall, r) for wall, events, r, _ in run.periods]
        lost = run.target - len(rounds)
        attempted, failed = run.attempted + lost, len(run.failures) + lost
        failures = run.failures + [hang]
        gap = statistics.fmean(run.gap_samples) if run.gap_samples else 0.0
        say(f"  {lost} rounds lost to the hung run")
    elif soak is not None and soak["soaks"]:
        units, round_walls = reference_units(soak["soaks"], soak["probes"])
        # A soak's events are generated as it runs: count each soak the
        # hang kept from finishing as a median finished soak's events.
        lost = (soak["count"] - len(units)) * round(statistics.median(soak["generated"]))
        attempted, failed = soak["attempted"] + lost, soak["failed"] + lost
        failures, gap = [hang], 0.0
        say(f"  {soak['count'] - len(units)} soaks (about {lost} events) lost to the hung run")
    else:
        units = []
    if args.mode != "run" or not units:
        say("  no result: the run hung before its first measured unit finished")
        exit_now(3)
    gates = Gates()
    check_round_reports(rounds, gates)
    gates.report()
    out = common_metrics(rounds, units, timer.elapsed(), watch["setup_s"], peak_rss_mb(), round_walls)
    out.update(
        attempted=attempted,
        failed=failed,
        correct=gates.passed,
        failures=failures,
        ledger_gap_pts=gap,
        environment=environment(),
    )
    emit(out)
    exit_now(0)


def exit_now(code: int) -> None:
    """Leave at once, from any thread: stop the pool workers of a
    pricing call that will never finish, then end the process."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5.0)
    sys.stdout.flush()
    os._exit(code)


def emit(out: dict) -> None:
    print(json.dumps(out, default=str), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--no-checks", action="store_true")
    parser.add_argument("--deadline", type=float, default=150.0)
    parser.add_argument("--baseline-run-s", type=float, default=0.0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    log = RoundLog()
    log.install()
    rec = None
    if args.mode == "traced":
        rec = Traced()
        rec.install()
    watch: dict = {}
    timer = threading.Timer(args.deadline, on_hang, (args, log, watch))
    timer.daemon = True
    timer.start()
    faulthandler.dump_traceback_later(args.deadline + 20.0, exit=True)
    gates = Gates()
    try:
        if args.workload == "rounds-k16":
            res = run_rounds(args, log, rec, gates, watch)
        else:
            res = run_soak_workload(args, log, rec, gates, watch)
    finally:
        timer.cancel()
        faulthandler.cancel_dump_traceback_later()
    if args.mode == "setup":
        emit(res)
        return 0
    gates.report()
    res["correct"] = gates.passed
    res["gates"] = gates.results
    res["environment"] = environment()
    if rec is not None:
        res["per_layer"], layer_self = per_layer_metrics(res, rec, args.baseline_run_s)
        traced_s, total = rec.run_s, sum(layer_self.values())
        say(f"  self time by layer (traced run_s {traced_s:.3f} s):")
        for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            say(f"    {layer:<24} {s:10.4f} s  {100.0 * s / traced_s:6.2f}%")
        say(f"    {'sum':<24} {total:10.4f} s  {100.0 * total / traced_s:6.2f}%")
        res["self_time_by_layer"] = layer_self
        res["self_time_sum_ok"] = abs(total - traced_s) <= 0.01 * traced_s
        if args.trace_out:
            rec.save(args.trace_out, f"{args.workload} seed {args.seed} seconds {args.seconds}")
            say(f"  spans written to {args.trace_out} ({len(rec.start_col)} spans)")
    emit(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``walkthrough``  — replay the spec's Figure-1 story with rendered
  trees and an event timeline; exits 1 if the audit finds an error;
* ``loop``         — replay the Figure-5 rejoin-loop episode (§6.3);
* ``compare``      — CBT vs DVMRP state/overhead on a random topology;
* ``topology``     — generate a topology, build a group, show the tree;
* ``experiments``  — list the experiment index (benchmarks);
* ``ci``           — parallel sharded CI tiers (``repro-ci-report/1``);
* ``stats``        — metrics-registry snapshot after the Figure-1 run;
* ``trace``        — structured trace records (``repro-trace/1`` JSONL).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import CBTDomain, build_figure1, build_figure5_loop, group_address
from repro.analysis import (
    control_census,
    event_timeline,
    render_topology,
    render_tree,
)
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, judge_delivery, send_data

EXPERIMENTS = [
    ("E1", "bench_state_scaling.py", "router state: CBT O(G) vs DVMRP O(S*G)"),
    ("E2", "bench_control_overhead.py", "control + off-tree data overhead"),
    ("E3", "bench_tree_cost.py", "tree cost vs group size"),
    ("E4", "bench_delay_stretch.py", "delay stretch vs core placement"),
    ("E5", "bench_traffic_concentration.py", "traffic concentration vs senders"),
    ("E6a", "bench_join_latency.py", "join latency vs hop distance"),
    ("E6b", "bench_failure_recovery.py", "failure recovery vs §9 timers"),
    ("E7", "bench_figure1_trace.py", "Figure-1 walk-through milestones"),
    ("E8", "bench_loop_detection.py", "rejoin loop detection (§6.3)"),
    ("E9", "bench_codec.py", "wire-format codecs (§8)"),
    ("E10", "bench_forwarding.py", "native vs CBT forwarding modes"),
    ("E11", "bench_keepalive.py", "echo aggregation ablation (§8.4)"),
    ("E12", "bench_churn.py", "control traffic under membership churn"),
    ("E13", "bench_packet_stretch.py", "packet-level vs model delay stretch"),
    ("E14", "bench_scale.py", "scale sweep: 25-10,000 routers"),
    ("E15", "bench_interop.py", "CBT <-> DVMRP bridge (§10)"),
    ("E16", "bench_core_redundancy.py", "core redundancy ablation"),
    ("E17", "bench_pim_comparison.py", "CBT vs PIM-SM (RP tree / SPT switchover)"),
    ("E18", "bench_legacy_join.py", "draft-02 vs draft-03 join procedure"),
    ("E19", "bench_core_migration.py", "core migration: locality handover"),
    ("E20", "bench_flash_crowd.py", "bootcast flash crowd on the n=1000 bulk topology"),
    ("E21", "bench_baseline_grid.py", "CBT vs DVMRP vs MOSPF vs HPIM-DM grid"),
    ("E22", "bench_hpimdm.py", "HPIM-DM hard-state convergence and recovery"),
]


def _run_figure1(all_members: bool = False):
    """Build and run the Figure-1 walkthrough scenario.

    Shared by ``walkthrough``, ``stats``, and ``trace`` so all three
    verbs observe the exact same simulation.
    """
    from repro.topology.figures import FIGURE1_MEMBERS

    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    members = FIGURE1_MEMBERS if all_members else ["A", "B", "G", "H"]
    start = net.scheduler.now
    for index, member in enumerate(members):
        net.scheduler.call_at(start + 0.05 * index, domain.join_host, member, group)
    net.run(until=start + 4.0)
    return net, domain, group, members


def cmd_walkthrough(args: argparse.Namespace) -> int:
    net, domain, group, members = _run_figure1(args.all_members)
    print(render_topology(net))
    print()
    print(render_tree(domain, group))
    sender = members[-1]
    delivery = judge_delivery(net, group, sender, send_data(net, sender, group))
    print(
        f"\ndata from {sender}: delivered to "
        f"{len(delivery.served)}/{len(delivery.members)} other members"
    )
    print()
    print(control_census(domain))
    from repro.core.audit import audit_domain, errors

    findings = audit_domain(domain)
    if findings:
        print("\naudit findings:")
        for finding in findings:
            print(f"  {finding}")
    else:
        print("\naudit: clean (no invariant violations, no smells)")
    if args.timeline:
        print()
        print(event_timeline(domain, group=group))
    return 1 if errors(findings) else 0


def cmd_loop(args: argparse.Namespace) -> int:
    fig = build_figure5_loop()
    net = fig.network
    fig.isolate_chain()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R1"])
    domain.start()
    net.run(until=3.0)
    for index, member in enumerate(["HM3", "HM4", "HM5"]):
        net.scheduler.call_at(3.0 + 0.1 * index, domain.join_host, member, group)
    net.run(until=8.0)
    print("tree built along the chain:")
    print(render_tree(domain, group))
    fig.restore_shortcuts()
    net.run(until=10.0)
    fig.fail_parent_link()
    net.run(until=250.0)
    print("\nafter R2-R3 failure, loop detection, and re-homing:")
    print(render_tree(domain, group))
    print()
    print(
        event_timeline(
            domain,
            group=group,
            kinds={"parent_lost", "loop_detected", "gave_up", "rejoined", "flushed", "joined"},
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.formatting import format_table
    from repro.harness.scenarios import (
        build_cbt_group,
        build_dvmrp_group,
        pick_members,
    )
    from repro.metrics.state import cbt_entry_census, dvmrp_entry_census
    from repro.topology.generators import waxman_network

    def world():
        net = waxman_network(args.size, seed=args.seed)
        return net, pick_members(net, args.members, seed=args.seed)

    if args.senders < 0:
        print(f"--senders must be >= 0, got {args.senders}", file=sys.stderr)
        return 2
    try:
        first = world()
    except ValueError as exc:
        print(f"repro compare: {exc}", file=sys.stderr)
        return 2

    def one_side(kind: str, net, members):
        if kind == "cbt":
            domain, group = build_cbt_group(net, members, cores=["N0"])
            control = domain.control_messages_sent()
        else:
            domain, group = build_dvmrp_group(net, members, prune_lifetime=300.0)
            control = domain.control_messages()
        for sender in members[: args.senders]:
            send_data(net, sender, group, count=1)
        return domain, control

    cbt_domain, cbt_control = one_side("cbt", *first)
    dvmrp_domain, dvmrp_control = one_side("dvmrp", *world())
    cbt_census = cbt_entry_census(cbt_domain)
    dvmrp_census = dvmrp_entry_census(dvmrp_domain)
    print(
        format_table(
            ["metric", "CBT", "DVMRP"],
            [
                [
                    "routers holding state",
                    f"{cbt_census.routers_with_state}/{args.size}",
                    f"{dvmrp_census.routers_with_state}/{args.size}",
                ],
                ["table entries", cbt_census.total, dvmrp_census.total],
                ["control messages", cbt_control, dvmrp_control],
            ],
            title=(
                f"{args.members} members, {args.senders} senders, "
                f"Waxman n={args.size} seed={args.seed}"
            ),
        )
    )
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    from repro.harness.scenarios import build_cbt_group, pick_members
    from repro.topology.generators import (
        barabasi_albert_network,
        grid_network,
        transit_stub_network,
        waxman_network,
    )

    builders = {
        "waxman": lambda: waxman_network(args.size, seed=args.seed),
        "ba": lambda: barabasi_albert_network(args.size, seed=args.seed),
        "grid": lambda: grid_network(
            max(2, int(args.size ** 0.5)), max(2, int(args.size ** 0.5))
        ),
        "transit-stub": lambda: transit_stub_network(seed=args.seed),
        "figure1": build_figure1,
    }
    try:
        net = builders[args.kind]()
        members = pick_members(net, min(args.members, len(net.hosts)), seed=args.seed)
    except ValueError as exc:
        print(f"repro topology: {exc}", file=sys.stderr)
        return 2
    print(render_topology(net))
    if args.kind == "figure1":
        return 0
    core = sorted(net.routers)[0]
    domain, group = build_cbt_group(net, members, cores=[core])
    print()
    print(render_tree(domain, group))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    print("experiment index (run with: pytest benchmarks/<file> --benchmark-only -s)")
    for exp_id, bench, title in EXPERIMENTS:
        print(f"  {exp_id:4s} {bench:32s} {title}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.harness.formatting import format_table
    from repro.workloads.cell import WORKLOAD_TOPOLOGIES, run_workload_cell

    if args.topology is not None and args.topology not in WORKLOAD_TOPOLOGIES:
        print(
            f"unknown topology {args.topology!r}; "
            f"known: {', '.join(WORKLOAD_TOPOLOGIES)}",
            file=sys.stderr,
        )
        return 2
    result = run_workload_cell(
        args.workload, topology=args.topology, seed=args.seed, quick=args.quick
    )

    rows = []
    # Sample fingerprints follow QualitySample.fingerprint() field order.
    for fp in result.sample_fingerprints:
        (
            t, members, on_tree, cost_cbt, cost_spt, s_mean, _s_max,
            ctl_cbt, ctl_dvmrp, ctl_mospf, p50, p95, p99,
        ) = fp
        rows.append(
            [
                f"{t:.1f}",
                members,
                on_tree,
                f"{cost_cbt:.1f}",
                f"{cost_spt:.1f}",
                f"{s_mean:.2f}",
                ctl_cbt,
                ctl_dvmrp,
                ctl_mospf,
                f"{p50 * 1000:.0f}",
                f"{p95 * 1000:.0f}",
                f"{p99 * 1000:.0f}",
            ]
        )
    print(f"workload {args.workload} on {result.topology} (seed={args.seed})")
    print(
        format_table(
            [
                "t",
                "members",
                "on-tree",
                "cost/cbt",
                "cost/spt",
                "stretch",
                "ctl/cbt",
                "ctl/dvmrp",
                "ctl/mospf",
                "p50ms",
                "p95ms",
                "p99ms",
            ],
            rows,
        )
    )
    if args.workload == "flash-crowd":
        print(
            f"clients={result.clients} segments={result.segments} "
            f"expected={result.expected_pairs} "
            f"delivered={result.delivered_pairs} "
            f"duplicates={result.duplicate_pairs} "
            f"continuity={result.continuity:.4f} "
            f"drained={'yes' if result.drained else 'NO'}"
        )
    else:
        print(
            f"hosts={result.hosts} joins={result.joins} "
            f"leaves={result.leaves} "
            f"recovered={'yes' if result.recovered else 'NO'}"
        )
    control = (
        f"control: cbt={result.control_cbt} "
        f"dvmrp(model)={result.control_dvmrp_model} "
        f"mospf(model)={result.control_mospf_model}"
    )
    if args.workload == "flash-crowd":
        control += (
            f"  join p50/p95/p99 = "
            f"{result.join_p50 * 1000:.0f}/{result.join_p95 * 1000:.0f}/"
            f"{result.join_p99 * 1000:.0f} ms"
        )
    print(control)
    for name, findings in sorted(getattr(result, "snapshots", {}).items()):
        print(f"snapshot {name}: {'clean' if not findings else 'FINDINGS'}")
    for line in result.findings():
        print(f"  {line}")
    print("clean" if result.clean else "NOT CLEAN")
    return 0 if result.clean else 1


def cmd_ci(args: argparse.Namespace) -> int:
    import os

    from repro.harness.parallel import shard_units
    from repro.harness.tiers import (
        TIERS,
        build_tier,
        check_report_path,
        replay_unit,
        run_ci,
        write_report,
    )

    if args.replay_shard:
        result, error = replay_unit(args.report, args.replay_shard)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        print(f"{result.unit_id}: {result.status} "
              f"({result.wall_seconds:.1f}s) fingerprint={result.fingerprint}")
        for line in result.detail:
            print(f"  {line}")
        return 0 if result.ok else 1

    if args.tier not in TIERS:
        print(
            f"unknown tier {args.tier!r}; known: {', '.join(TIERS)}",
            file=sys.stderr,
        )
        return 2
    try:
        shard_index, shard_count = (int(p) for p in args.shard.split("/", 1))
    except ValueError:
        print(f"--shard must look like i/n, got {args.shard!r}", file=sys.stderr)
        return 2
    try:
        shard_units((), shard_index, shard_count)
    except ValueError as exc:
        print(f"--shard {args.shard}: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 0:
        print(f"--workers must be >= 0 (0 = inline), got {args.workers}", file=sys.stderr)
        return 2

    if args.list:
        units = build_tier(args.tier, seed=args.seed)
        for unit in shard_units(units, shard_index, shard_count):
            print(f"  {unit.unit_id:40s} timeout={unit.timeout:g}s")
        return 0

    try:
        check_report_path(args.report)
    except OSError as exc:
        print(f"--report {args.report}: cannot write ({exc.strerror})", file=sys.stderr)
        return 2

    workers = args.workers
    if workers is None:
        workers = min(8, os.cpu_count() or 1)

    def progress(unit, result) -> None:
        print(
            f"  {result.unit_id:40s} {result.status:8s} "
            f"{result.wall_seconds:6.1f}s attempts={result.attempts}"
        )

    report = run_ci(
        args.tier,
        workers=workers,
        shard=(shard_index, shard_count),
        seed=args.seed,
        progress=progress if args.verbose else None,
    )
    write_report(report, args.report)
    merged = report["merged"]
    print(
        f"tier={report['tier']} shard={shard_index}/{shard_count} "
        f"workers={workers} units={len(report['units'])} "
        f"counts={merged['counts']}"
    )
    print(f"merged fingerprint: {merged['fingerprint']}")
    for gate in report["gates"]:
        verdict = (
            "SKIP" if gate["skipped"] else ("ok" if gate["passed"] else "FAIL")
        )
        print(f"  gate {gate['name']:18s} {verdict:4s} {gate['detail']}")
    print(f"report: {args.report}")
    if not report["ok"]:
        failed = [u for u in report["units"] if u["status"] not in ("ok", "skipped")]
        for unit in failed:
            print(f"\n-- {unit['unit_id']} ({unit['status']}) --", file=sys.stderr)
            for line in unit["detail"]:
                print(f"  {line}", file=sys.stderr)
            print(
                f"  reproduce locally: repro ci --replay-shard {unit['unit_id']} "
                f"--report {args.report}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import SCENARIOS, TOPOLOGIES, run_campaign
    from repro.harness.formatting import format_table

    scenarios = args.scenario or None
    topologies = args.topology or ["figure1"]
    for name in scenarios or []:
        if name not in SCENARIOS:
            print(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}", file=sys.stderr)
            return 2
    for name in topologies:
        if name not in TOPOLOGIES:
            print(f"unknown topology {name!r}; known: {', '.join(TOPOLOGIES)}", file=sys.stderr)
            return 2

    def progress(result) -> None:
        status = "ok" if result.clean else "FAIL"
        print(
            f"  {result.topology:10s} {result.scenario:14s} seed={result.seed}  {status}"
        )

    results = run_campaign(
        scenarios=scenarios,
        seeds=tuple(args.seeds),
        topologies=tuple(topologies),
        quick=args.quick,
        progress=progress if args.verbose else None,
    )
    rows = []
    for r in results:
        rows.append(
            [
                r.topology,
                r.scenario,
                r.seed,
                "yes" if r.recovered else "NO",
                "-" if r.recovery_time == float("inf") else f"{r.recovery_time:.1f}s",
                r.control_cost,
                f"{r.delivery_before:.0%}",
                f"{r.delivery_after:.0%}",
                len(r.violations),
            ]
        )
    print(
        format_table(
            [
                "topology",
                "scenario",
                "seed",
                "recovered",
                "recovery",
                "control",
                "del/pre",
                "del/post",
                "violations",
            ],
            rows,
            title=(
                f"chaos campaign: {len(results)} cells"
                + (" (quick)" if args.quick else "")
            ),
        )
    )
    failures = [r for r in results if not r.clean]
    if failures:
        print(f"\n{len(failures)} cell(s) failed:", file=sys.stderr)
        for r in failures:
            print(
                f"\n-- {r.topology}/{r.scenario} seed={r.seed} --", file=sys.stderr
            )
            for at, what in r.faults:
                print(f"  fault t={at:8.2f}  {what}", file=sys.stderr)
            for line in r.findings():
                print(f"  {line}", file=sys.stderr)
            for line in r.trace:
                print(f"  trace: {line}", file=sys.stderr)
        return 1
    print("\nall cells recovered; auditor clean; every probe delivered once")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    import time

    from repro.explore.engine import explore
    from repro.explore.replay import ScheduleFormatError, replay_file
    from repro.explore.scenarios import SCENARIOS, scenario_options

    if args.replay:
        try:
            outcome = replay_file(args.replay)
        except (OSError, ScheduleFormatError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        for line in outcome.narrative:
            print(f"  {line}")
        if outcome.violation is not None:
            print("replay reproduced the violation", file=sys.stderr)
            return 1
        print("replay clean")
        return 0

    names = args.scenario or (["joins-race"] if args.smoke else sorted(SCENARIOS))
    for name in names:
        if name not in SCENARIOS:
            print(
                f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}",
                file=sys.stderr,
            )
            return 2

    if args.backward:
        return _explore_backward(args, names)

    depth = args.depth if args.depth is not None else (5 if args.smoke else 3)
    failed = False
    for name in names:
        scenario = SCENARIOS[name]
        try:
            options = scenario_options(
                scenario,
                max_decisions=depth,
                max_alternatives=args.max_alternatives,
                drop_budget=args.drop_budget,
            )
        except ValueError as exc:
            print(f"repro explore: {exc}", file=sys.stderr)
            return 2
        started = time.monotonic()
        progress = None
        if args.verbose:
            progress = lambda runs, frontier: print(
                f"  {name}: run {runs} (frontier {frontier})", end="\r"
            )
        result = explore(scenario, options, progress=progress)
        elapsed = time.monotonic() - started
        stats = result.stats
        status = "ok" if result.ok else "VIOLATION"
        print(
            f"{name:12s} {status:9s} runs={stats.runs} "
            f"sims={stats.simulations} visited={stats.states_visited} pruned={stats.states_pruned} "
            f"depth<={depth} exhausted={'yes' if result.exhausted else 'no'} "
            f"digest={result.visited_digest} ({elapsed:.1f}s)"
        )
        if result.counterexample is None:
            continue
        failed = True
        _report_counterexample(
            args.export_dir,
            scenario,
            result.counterexample,
            options,
            note=f"repro explore --scenario {name} --depth {depth}",
        )
    return 1 if failed else 0


def _report_counterexample(export_dir, scenario, counterexample, options, note) -> None:
    """Shrink a counterexample, print its narrative and export it (the
    schedule, the narrative and a pytest file) to ``export_dir``."""
    from repro.explore.export import export_counterexample, narrative_text
    from repro.explore.shrink import shrink

    shrunk = shrink(scenario, counterexample.schedule, options)
    if shrunk is not None:
        print(
            f"  shrunk {list(counterexample.schedule)} -> "
            f"{list(shrunk.schedule)} "
            f"({shrunk.runs_used} replays)"
        )
    print(narrative_text(counterexample, shrunk), end="")
    paths = export_counterexample(
        export_dir, counterexample, options, shrunk=shrunk, note=note
    )
    for kind in ("schedule", "narrative", "test"):
        print(f"  exported {kind}: {paths[kind]}")


def _explore_backward(args: argparse.Namespace, names) -> int:
    """``repro explore --backward``: fault-directed search from goal
    predicates, every report confirmed by forward replay."""
    import time

    from repro.explore.backward import backward_search, check_bounds
    from repro.explore.predicates import get_predicate
    from repro.explore.scenarios import SCENARIOS, scenario_options

    try:
        predicates = (
            [get_predicate(name) for name in args.predicate]
            if args.predicate
            else None
        )
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    try:
        check_bounds(max_deviations=args.max_deviations, budget=args.budget)
    except ValueError as exc:
        print(f"repro explore --backward: {exc}", file=sys.stderr)
        return 2

    failed = False
    for name in names:
        scenario = SCENARIOS[name]
        started = time.monotonic()
        result = backward_search(
            scenario,
            predicates,
            max_deviations=args.max_deviations,
            budget=args.budget,
            seed=args.seed,
        )
        elapsed = time.monotonic() - started
        stats = result.stats
        status = "ok" if result.ok else "VIOLATION"
        runs = ",".join(f"{p}:{n}" for p, n in stats.runs_by_predicate.items())
        print(
            f"{name:12s} {status:9s} "
            f"predicates={stats.predicates_tried} runs={runs} "
            f"candidates={stats.candidates_tried} "
            f"confirmed={stats.candidates_confirmed} "
            f"rejected={stats.candidates_rejected} "
            f"max-depth={stats.max_depth_reached} "
            f"exhausted={'yes' if result.exhausted else 'no'} "
            f"({elapsed:.1f}s)"
        )
        for counterexample in result.counterexamples:
            failed = True
            _report_counterexample(
                args.export_dir,
                scenario,
                counterexample,
                scenario_options(scenario, max_decisions=0),
                note=(
                    f"repro explore --backward --scenario {name} "
                    f"--predicate {counterexample.predicate} "
                    f"--seed {args.seed}"
                ),
            )
    return 1 if failed else 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Metrics-registry snapshot after the Figure-1 walkthrough run."""
    import json as _json
    from fnmatch import fnmatchcase

    from repro.harness.formatting import format_table

    net, _domain, _group, _members = _run_figure1(args.all_members)
    snapshot = net.telemetry.registry.snapshot()
    if args.match:
        snapshot = {
            name: value
            for name, value in snapshot.items()
            if fnmatchcase(name, args.match)
        }
    if args.json:
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    rows = [
        [name, f"{value:g}"] for name, value in sorted(snapshot.items())
    ]
    if not rows:
        print("(no matching instruments)")
        return 0
    print(
        format_table(
            ["instrument", "value"],
            rows,
            title=f"telemetry snapshot ({len(rows)} instruments)",
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Structured trace records from the Figure-1 walkthrough run: the
    trace bus and the packet trace as one ``repro-trace/1`` stream.

    The two sources are merged by time.  At one instant the bus records
    come first, then the packet records; each source keeps its own
    order (both are appended as the simulation clock advances).
    """
    from heapq import merge
    from operator import attrgetter

    from repro.telemetry import PacketEvent, dump_jsonl

    net, _domain, _group, _members = _run_figure1(args.all_members)
    packets = (
        map(PacketEvent.from_trace_record, net.trace)
        if args.type in (None, "packet")
        else ()
    )
    records = list(
        merge(net.telemetry.bus.records(args.type), packets, key=attrgetter("time"))
    )
    if args.jsonl is not None:
        if args.jsonl == "-":
            count = dump_jsonl(records, sys.stdout)
        else:
            try:
                with open(args.jsonl, "w", encoding="utf-8") as fh:
                    count = dump_jsonl(records, fh)
            except OSError as exc:
                print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
                return 2
            print(f"wrote {count} records to {args.jsonl}")
        return 0
    shown = records if args.limit <= 0 else records[: args.limit]
    for record in shown:
        payload = record.to_payload()
        payload.pop("time", None)
        detail = " ".join(
            f"{key}={value}"
            for key, value in payload.items()
            if value not in ("", None)
        )
        print(f"t={record.time:9.4f}s {record.RECORD_TYPE:10s} {detail}")
    if len(records) > len(shown):
        print(f"... {len(records) - len(shown)} more records (use --limit 0)")
    if not records:
        print("(no records)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.harness.report import build_report, write_report

    if not os.path.isdir(args.results_dir):
        print(f"{args.results_dir}: no such results directory", file=sys.stderr)
        return 2
    try:
        if args.output:
            write_report(args.results_dir, args.output)
            print(f"report written to {args.output}")
        else:
            print(build_report(args.results_dir))
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.workloads.cell import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Core Based Trees (CBT) multicast reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walkthrough = sub.add_parser(
        "walkthrough", help="replay the spec's Figure-1 story"
    )
    walkthrough.add_argument(
        "--all-members", action="store_true", help="join every Figure-1 host"
    )
    walkthrough.add_argument(
        "--timeline", action="store_true", help="print the event timeline"
    )
    walkthrough.set_defaults(func=cmd_walkthrough)

    loop = sub.add_parser("loop", help="replay the Figure-5 rejoin loop (§6.3)")
    loop.set_defaults(func=cmd_loop)

    compare = sub.add_parser("compare", help="CBT vs DVMRP on a random topology")
    compare.add_argument("--size", type=int, default=24)
    compare.add_argument("--members", type=int, default=5)
    compare.add_argument("--senders", type=int, default=3)
    compare.add_argument("--seed", type=int, default=7)
    compare.set_defaults(func=cmd_compare)

    topology = sub.add_parser("topology", help="generate and display a topology")
    topology.add_argument(
        "--kind",
        choices=["waxman", "ba", "grid", "transit-stub", "figure1"],
        default="waxman",
    )
    topology.add_argument("--size", type=int, default=16)
    topology.add_argument("--members", type=int, default=4)
    topology.add_argument("--seed", type=int, default=0)
    topology.set_defaults(func=cmd_topology)

    experiments = sub.add_parser("experiments", help="list the experiment index")
    experiments.set_defaults(func=cmd_experiments)

    ci = sub.add_parser(
        "ci",
        help="run a named CI tier across parallel shards "
        "(writes a repro-ci-report/1 JSON)",
    )
    ci.add_argument(
        "--tier",
        default="smoke",
        help="lint | smoke | chaos | explore | tier1 | full | nightly",
    )
    ci.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: min(8, cpu count); 0 = inline)",
    )
    ci.add_argument(
        "--shard",
        default="0/1",
        metavar="I/N",
        help="run shard I of N for cross-machine splitting (default 0/1)",
    )
    ci.add_argument(
        "--seed", type=int, default=0, help="base seed for derived cell seeds"
    )
    ci.add_argument(
        "--report",
        default="repro-ci-report.json",
        metavar="PATH",
        help="where the repro-ci-report/1 JSON is written",
    )
    ci.add_argument(
        "--list", action="store_true", help="print the shard's units and exit"
    )
    ci.add_argument(
        "--replay-shard",
        metavar="UNIT_ID",
        help="re-run one unit from --report inline (local red-shard debugging)",
    )
    ci.add_argument(
        "--verbose", action="store_true", help="print each unit as it finishes"
    )
    ci.set_defaults(func=cmd_ci)

    chaos = sub.add_parser(
        "chaos",
        help="run deterministic fault-injection campaigns under the invariant auditor",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="smoke sweep (quick scenarios x 1 seed on Figure 1)",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run a subset of scenarios (repeatable; default: all)",
    )
    chaos.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        help="seeds to sweep (default: 0 1 2)",
    )
    chaos.add_argument(
        "--topology",
        action="append",
        metavar="NAME",
        default=None,
        help="topologies to sweep (repeatable; default: figure1)",
    )
    chaos.add_argument(
        "--verbose", action="store_true", help="print each cell as it finishes"
    )
    chaos.set_defaults(func=cmd_chaos)

    workload = sub.add_parser(
        "workload",
        help="run a production traffic workload cell (flash crowd or churn)",
    )
    workload.add_argument(
        "workload",
        choices=WORKLOADS,
        help="flash-crowd: bootcast burst; poisson/pareto: session churn",
    )
    workload.add_argument(
        "--topology",
        metavar="NAME",
        default=None,
        help="topology (default: bulk1000 for flash-crowd, else waxman16)",
    )
    workload.add_argument(
        "--seed", type=int, default=0, help="base seed (default: 0)"
    )
    workload.add_argument(
        "--quick",
        action="store_true",
        help="smaller crowd / shorter churn window",
    )
    workload.set_defaults(func=cmd_workload)

    explore = sub.add_parser(
        "explore",
        help="systematically explore message races under the invariant oracle",
    )
    explore.add_argument(
        "--smoke",
        action="store_true",
        help="bounded smoke exploration of the joins-race scenario",
    )
    explore.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="explore a subset of scenarios (repeatable; default: all)",
    )
    explore.add_argument(
        "--depth",
        type=int,
        default=None,
        help="decision-depth bound (default: 3; 5 with --smoke)",
    )
    explore.add_argument(
        "--drop-budget",
        type=int,
        default=1,
        help="max explored message drops per run (default: 1)",
    )
    explore.add_argument(
        "--max-alternatives",
        type=int,
        default=4,
        help="alternatives considered per decision point (default: 4)",
    )
    explore.add_argument(
        "--export-dir",
        default="explore-artifacts",
        help="where counterexample artefacts are written",
    )
    explore.add_argument(
        "--replay",
        metavar="FILE",
        help="replay a .schedule.json document instead of exploring",
    )
    explore.add_argument(
        "--verbose", action="store_true", help="live run counter while searching"
    )
    explore.add_argument(
        "--backward",
        action="store_true",
        help=(
            "fault-directed backward search from goal predicates "
            "(every report confirmed by forward replay)"
        ),
    )
    explore.add_argument(
        "--predicate",
        action="append",
        metavar="NAME",
        help=(
            "goal predicate for --backward (repeatable; default: all; "
            "see docs/TESTING.md for the catalogue)"
        ),
    )
    explore.add_argument(
        "--budget",
        type=int,
        default=600,
        help="max confirmation replays for --backward (default: 600)",
    )
    explore.add_argument(
        "--max-deviations",
        type=int,
        default=3,
        help="pre-state chain length bound for --backward (default: 3)",
    )
    explore.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for --backward ordering",
    )
    explore.set_defaults(func=cmd_explore)

    stats = sub.add_parser(
        "stats",
        help="metrics-registry snapshot after the Figure-1 walkthrough run",
    )
    stats.add_argument(
        "--all-members", action="store_true", help="join every Figure-1 host"
    )
    stats.add_argument(
        "--match",
        metavar="PATTERN",
        help="shell-style instrument-name filter (e.g. 'cbt.router.R4.*')",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit a sorted JSON object"
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="structured trace records from the Figure-1 walkthrough run",
    )
    trace.add_argument(
        "--all-members", action="store_true", help="join every Figure-1 host"
    )
    trace.add_argument(
        "--type",
        choices=["protocol", "packet", "membership", "fault"],
        default=None,
        help="restrict to one record type",
    )
    trace.add_argument(
        "--jsonl",
        metavar="OUT",
        help="write a repro-trace/1 JSONL stream to OUT ('-' for stdout)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=50,
        help="max records in human-readable mode (0 = unlimited)",
    )
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser(
        "report", help="assemble benchmark artefacts into one markdown report"
    )
    report.add_argument(
        "--results-dir", default="benchmarks/results", help="artefact directory"
    )
    report.add_argument("--output", help="write to file instead of stdout")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

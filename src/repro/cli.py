"""Command-line interface: run simulations and regenerate paper figures.

Exposed as ``python -m repro``.  Seven subcommands, each importing
what it runs when it runs (``_COMMANDS``): ``--help``, ``lint`` and
``cache info|clear`` never import the simulator, and ``simulate`` /
``replay`` / ``serve`` never import the experiment registry.

``simulate``
    Run one scheme on one scenario and print the metric summary.
``experiment``
    Regenerate one of the paper's tables/figures (or an ablation) and
    print its rows, or (``claims``) check every paper claim on three
    scenario seeds and print the results and verdicts as JSON;
    ``--workers N`` (or ``REPRO_WORKERS``) fans the underlying
    simulations out over worker processes.
``cache``
    Inspect, warm, or clear the persistent preprocessing artifact
    store (see :mod:`repro.artifacts`).
``list``
    List the available schemes, experiments and ablations.
``lint``
    Run the project's determinism/invariant static analysis
    (see :mod:`repro.analysis` and ``docs/STATIC_ANALYSIS.md``).
``replay``
    Stream a JSONL request trace through the dispatch service façade
    and print the final metrics (see :mod:`repro.service`).
``serve``
    Expose one simulator run as an HTTP dispatch endpoint.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .artifacts.store import ArtifactStore


def _scenario_args(p: argparse.ArgumentParser, requests_default: int, requests_help: str) -> None:
    """The scenario flags ``simulate``, ``replay`` and ``serve`` share."""
    from .sim.scenario import SCHEME_NAMES

    p.add_argument("--scheme", choices=SCHEME_NAMES, default="mt-share")
    p.add_argument("--kind", choices=("peak", "nonpeak"), default="peak")
    p.add_argument("--taxis", type=int, default=100)
    p.add_argument("--capacity", type=int, default=3)
    p.add_argument("--requests", type=int, default=requests_default, help=requests_help)
    p.add_argument("--grid", type=int, default=16,
                   help="network grid side (vertices per side)")
    p.add_argument("--partitions", type=int, default=25)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sp-mode", choices=("auto", "full", "lazy", "ch"),
                   default="auto",
                   help="shortest-path backend (auto: full below/lazy above "
                        "the dense-matrix vertex limit; ch only when named)")


def _simulate_args(sim: argparse.ArgumentParser) -> None:
    _scenario_args(sim, 600, "expected busiest-hour request volume")
    sim.add_argument("--rho", type=float, default=1.3,
                     help="flexible factor setting each request's deadline")
    sim.add_argument("--window", type=float, default=None, metavar="SECONDS",
                     help="dispatch-window length W, only with --scheme "
                          "window-lap (0 reproduces greedy decisions exactly; "
                          "default: the config's dispatch_window_s)")
    sim.add_argument("--congestion", type=float, default=1.0,
                     help="speed factor; < 1 slows traffic")
    sim.add_argument("--trace", metavar="PATH", default=None,
                     help="append a structured JSONL event trace (stage "
                          "timings, dispatches, offline encounters) to PATH")
    sim.add_argument("--faults", metavar="SPEC", default=None,
                     help="inject deterministic faults; SPEC is "
                          "key=value[,key=value...] with keys seed, "
                          "breakdown_rate, cancel_rate, shock_windows, "
                          "shock_delay_s, shock_duration_s, "
                          "shock_radius_frac, continuation_rho, "
                          "continuation_wait_s (see docs/ROBUSTNESS.md)")
    sim.add_argument("--rebalance", metavar="SPEC", default=None,
                     help="proactively reposition surplus idle taxis "
                          "toward predicted-demand deficit zones; SPEC is "
                          "'on', 'off' or key=value[,key=value...] with "
                          "keys cadence_s, lead_s, max_moves, min_surplus, "
                          "max_cruise_s (see docs/ALGORITHMS.md)")


def _experiment_args(exp: argparse.ArgumentParser) -> None:
    from .experiments.claims import REGISTRY

    exp.add_argument("name", choices=sorted(REGISTRY))
    exp.add_argument("--workers", type=int, default=None,
                     help="parallel sweep workers, a positive integer "
                          "(default: REPRO_WORKERS or 1)")


def _cache_args(cache: argparse.ArgumentParser) -> None:
    cache.add_argument("action", choices=("info", "warm", "clear"))
    cache.add_argument("--experiments", nargs="*", default=None, metavar="NAME",
                       help="experiments to warm artifacts for (default: all figures)")
    cache.add_argument("--ch-grid", type=int, default=None, metavar="SIDE",
                       help="warm: pre-build the contraction hierarchy for a "
                            "SIDE x SIDE scenario network instead of warming "
                            "experiment artifacts")
    cache.add_argument("--kind", choices=("peak", "nonpeak"), default="peak",
                       help="scenario kind for --ch-grid")
    cache.add_argument("--spacing", type=float, default=180.0,
                       help="grid spacing in metres for --ch-grid")
    cache.add_argument("--seed", type=int, default=7,
                       help="scenario seed for --ch-grid")


def _service_args(p: argparse.ArgumentParser) -> None:
    _scenario_args(p, 200, "scenario shaping only (demand history for the "
                           "predictive indexes); the workload itself "
                           "arrives through the service")
    p.add_argument("--max-in-flight", type=int, default=4096,
                   help="admission backpressure bound on queued requests")
    p.add_argument("--late-policy", choices=("reject", "clamp"), default="reject",
                   help="requests released behind the committed clock")
    p.add_argument("--compact", action="store_true",
                   help="bounded-memory mode for soak-length streams")


def _replay_args(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("trace", metavar="TRACE.jsonl",
                     help="request trace, one JSON object per line")
    _service_args(rep)
    rep.add_argument("--pump-every", type=int, default=1, metavar="K",
                     help="dispatch queued events after every K admitted "
                          "requests (0 defers everything to the drain)")
    rep.add_argument("--decisions", metavar="PATH", default=None,
                     help="append the decision stream to PATH as JSONL")


def _serve_args(srv: argparse.ArgumentParser) -> None:
    _service_args(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8350)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The ``repro`` parser with only ``command``'s flags filled in.

    Every sub-command is registered, so ``repro --help`` lists them all
    and an unknown one is rejected, but only the one being run gets its
    arguments: a sub-command's ``choices`` come from the registry its
    handler will use, and reading them imports it.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="mT-Share reproduction: simulate ridesharing or regenerate paper figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, help=entry.help)
        if name == command:
            entry.add_arguments(p)
    # "lint" is registered for --help discoverability only; main()
    # forwards its argv to the repro.analysis engine before parsing.
    sub.add_parser("lint", help="run the determinism/invariant lint",
                   add_help=False)
    return parser


class _BadArguments(Exception):
    """Flags that parse but describe nothing that can be built."""


@contextmanager
def _building(what: str = "") -> Iterator[None]:
    """Set-up of what the flags and the environment describe: a
    ``ValueError`` in here is the user's (``--grid 1``, ``--rho 0.5``,
    ``--workers 0``, ``REPRO_WORKERS=abc``, ``REPRO_BENCH_SCALE=bogus``)
    and :func:`main` reports it as one ``error:`` line, exit 2.  The
    run itself is never inside: a ``ValueError`` out of
    ``Simulator.run()`` is a bug and keeps its traceback."""
    try:
        yield
    except ValueError as exc:
        raise _BadArguments(f"{what}: {exc}" if what else str(exc)) from exc


def _build_scenario(args: argparse.Namespace, congestion: float = 1.0,
                    window: float | None = None):
    """Scenario, config, scheme and fleet from the shared scenario flags."""
    from .sim.scenario import ScenarioSpec, get_scenario

    with _building():
        spec = ScenarioSpec(
            kind=args.kind,
            grid_rows=args.grid,
            grid_cols=args.grid,
            hourly_requests=args.requests,
            history_days=3,
            num_partitions=args.partitions,
            congestion=congestion,
            seed=args.seed,
            sp_mode=args.sp_mode,
        )
        scenario = get_scenario(spec)
        overrides = {} if window is None else {"dispatch_window_s": window}
        config = scenario.default_config(**overrides)
        scheme = scenario.make_scheme(args.scheme, config=config)
        fleet = scenario.make_fleet(args.taxis, capacity=args.capacity)
    return scenario, config, scheme, fleet


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.payment import PaymentModel
    from .reporting import observability_table
    from .sim.engine import Simulator

    if args.window is not None and args.scheme != "window-lap":
        raise _BadArguments("--window applies only to --scheme window-lap")
    scenario, config, scheme, fleet = _build_scenario(args, args.congestion, args.window)
    with _building():
        requests = scenario.requests(rho=args.rho)
    with _building("bad --faults spec"):
        faults = scenario.fault_plan(args.faults, fleet, requests)
    with _building("bad --rebalance spec"):
        rebalance = scenario.rebalance_policy(args.rebalance, config)
    print(
        f"Simulating {scheme.name}: {len(requests)} requests, "
        f"{args.taxis} taxis, {scenario.network.num_vertices} vertices"
        + (f", {faults.num_events} fault events" if faults is not None else "")
        + (", rebalancing on" if rebalance is not None else "")
    )
    try:
        sim = Simulator(
            scheme, fleet, requests, payment=PaymentModel(),
            trace_path=args.trace, faults=faults, rebalance=rebalance,
        )
    except OSError as exc:
        print(f"error: cannot open trace file: {exc}", file=sys.stderr)
        return 2
    metrics = sim.run()
    for key, value in metrics.summary().items():
        print(f"  {key:18s} {value}")
    table = observability_table(metrics)
    if table is not None:
        table.print()
    if args.trace:
        print(f"\nJSONL event trace written to {args.trace}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.claims import REGISTRY
    from .experiments.runner import bench_scale, collect_keys, default_workers, run_many

    entry = REGISTRY[args.name]
    with _building():
        scale = bench_scale()
        workers = args.workers if args.workers is not None else default_workers()
        if workers < 1:
            raise ValueError(f"--workers must be a positive integer, got {workers}")
    if workers > 1 and entry.plannable:
        keys = collect_keys(entry.fn, scale)
        # stderr: stdout is the result, JSON for ``claims``.
        print(f"Sweeping {len(keys)} runs across {workers} workers...", file=sys.stderr)
        run_many(keys, workers=workers)
    result = entry.fn(scale)
    result.print()
    return 0


def _print_store_rows(store: ArtifactStore) -> None:
    """One line per artifact kind and a total: count, bytes, and the wall
    seconds the artifacts' builders took as their metas record them —
    where a cold start on this store went."""
    info = store.info()
    if not info:
        print("  (empty)")
        return
    rows = list(info.items())
    rows.append(("total", {
        field: sum(row[field] for row in info.values())
        for field in ("artifacts", "bytes", "build_s")
    }))
    for kind, row in rows:
        print(f"  {kind:10s} {row['artifacts']:4d} artifacts  {row['bytes'] / 1e6:8.2f} MB"
              f"  {row['build_s']:8.2f} s build")


def _cmd_cache(args: argparse.Namespace) -> int:
    from . import artifacts

    store = artifacts.get_store()
    if store is None:
        print(f"artifact store disabled ({artifacts.ARTIFACT_DIR_ENV} is 'off')")
        return 0 if args.action == "info" else 1
    if args.action == "info":
        print(f"artifact store: {store.root}")
        _print_store_rows(store)
        hierarchies = store.entries("ch")
        if hierarchies:
            print("\ncontraction hierarchies:")
            for row in hierarchies:
                meta = row["meta"]
                label = meta.get("label", row["key"])
                print(
                    f"  {label:40s} {meta.get('vertices', '?'):>8} vertices"
                    f"  {meta.get('shortcuts', '?'):>8} shortcuts"
                    f"  {row['bytes'] / 1e6:8.2f} MB"
                    f"  {meta.get('build_s', 0.0):8.2f} s build"
                )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    if args.ch_grid is not None:
        # warm --ch-grid: pre-build (or touch) one scenario's hierarchy.
        from .sim.scenario import Scenario, ScenarioSpec

        print(f"Warming contraction hierarchy for {args.ch_grid}x{args.ch_grid} "
              f"{args.kind} scenario (seed {args.seed})...")
        with _building():
            scenario = Scenario(ScenarioSpec(
                kind=args.kind,
                grid_rows=args.ch_grid,
                grid_cols=args.ch_grid,
                spacing_m=args.spacing,
                seed=args.seed,
                sp_mode="ch",
            ))
        hierarchy = scenario.engine.hierarchy
        assert hierarchy is not None
        state = "built" if scenario.engine.ch_built else "already stored"
        key = store.key_of("ch", scenario._ch_spec())
        build_s = next(row["meta"].get("build_s", 0.0)
                       for row in store.entries("ch") if row["key"] == key)
        print(f"  {scenario.network_label()}: {hierarchy.num_vertices} vertices, "
              f"{hierarchy.num_shortcuts} shortcuts, {build_s:.2f} s build ({state})")
        _print_store_rows(store)
        return 0
    # warm: build (or touch) every artifact the selected experiments need.
    from .experiments.figures import ALL_EXPERIMENTS, figure_run_keys
    from .experiments.runner import _warm_store

    names = args.experiments or None
    unknown = sorted(set(names or ()) - set(ALL_EXPERIMENTS))
    if unknown:
        print(f"error: unknown experiment(s): {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(ALL_EXPERIMENTS))})", file=sys.stderr)
        return 2
    keys = figure_run_keys(names)
    specs = {k.spec for k in keys}
    print(f"Warming artifacts for {len(keys)} runs ({len(specs)} scenarios)...")
    _warm_store(keys)
    _print_store_rows(store)
    return 0


def _make_service(args: argparse.Namespace) -> "DispatchService":
    """Build a DispatchService from the shared service CLI flags."""
    from .core.payment import PaymentModel
    from .service import AdmissionPolicy, DispatchService, ServiceConfig
    from .sim.engine import Simulator

    with _building():
        policy = AdmissionPolicy(
            max_in_flight=args.max_in_flight, late_policy=args.late_policy
        )
    _scenario, _config, scheme, fleet = _build_scenario(args)
    sim = Simulator(
        scheme, fleet, [], payment=PaymentModel(), compact=args.compact
    )
    return DispatchService(sim, ServiceConfig(admission=policy))


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from .service import decision_to_dict, jsonl_requests

    try:
        # Opened before the scenario is built: an unwritable path fails
        # in milliseconds, not after the whole set-up.
        sink_file = open(args.decisions, "a", encoding="utf-8") if args.decisions else None
    except OSError as exc:
        print(f"error: cannot open decisions file: {exc}", file=sys.stderr)
        return 2
    try:
        service = _make_service(args)
        if sink_file is not None:
            service.set_sink(
                lambda d: sink_file.write(_json.dumps(decision_to_dict(d)) + "\n")
            )
        else:
            service.set_sink(lambda d: None)  # replay prints totals, not a stream
        pump_every = args.pump_every if args.pump_every > 0 else None
        try:
            num_vertices = service.sim.scheme.network.num_vertices
            requests = jsonl_requests(args.trace, num_vertices)
            metrics = service.replay(requests, pump_every=pump_every)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if sink_file is not None:
            sink_file.close()
    print(
        f"Replayed {service.submitted} requests "
        f"({service.admitted} admitted, {service.submitted - service.admitted} rejected)"
    )
    for reason, count in sorted(service.rejections.items()):
        print(f"  rejected[{reason}]: {count}")
    for key, value in metrics.summary().items():
        print(f"  {key:18s} {value}")
    if args.decisions:
        print(f"\nJSONL decision stream written to {args.decisions}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.http import make_server

    service = _make_service(args)
    try:
        server, _state = make_server(service, host=args.host, port=args.port)
    except (OSError, OverflowError) as exc:  # OverflowError: a port outside 0..65535
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"dispatch service on http://{host}:{port}  "
          "(POST /requests, GET /metrics, POST /finish; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from .experiments.ablations import ALL_ABLATIONS
    from .experiments.claims import REGISTRY
    from .sim.scenario import SCHEME_REGISTRY

    print("schemes:")
    for info in SCHEME_REGISTRY.values():
        print(f"  {info.key:13s} {info.summary}")
    print("experiments :", ", ".join(sorted(set(REGISTRY) - set(ALL_ABLATIONS))))
    print("ablations   :", ", ".join(sorted(ALL_ABLATIONS)))
    print("\nSet REPRO_BENCH_SCALE=full for paper-shaped sweeps.")
    return 0


class _Command(NamedTuple):
    """One sub-command: its ``repro --help`` line, its flags, its handler."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "simulate": _Command("run one scheme on one scenario", _simulate_args, _cmd_simulate),
    "experiment": _Command("regenerate a paper table/figure", _experiment_args, _cmd_experiment),
    "cache": _Command("manage the preprocessing artifact store", _cache_args, _cmd_cache),
    "list": _Command("list schemes, experiments, ablations", lambda _p: None, _cmd_list),
    "replay": _Command("stream a JSONL request trace through the dispatch service",
                       _replay_args, _cmd_replay),
    "serve": _Command("expose a simulator run over HTTP", _serve_args, _cmd_serve),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        # Forward everything after "lint" untouched so the analysis
        # engine owns its own flags (--baseline, --format, ...).
        from .analysis import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args)
    except _BadArguments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

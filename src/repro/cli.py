"""Command-line interface.

``python -m repro <command>`` gives quick access to the survey artifacts
without writing code:

* ``tables`` — render the paper's Tables 1 and 2 from the implementation
  and report the diff against the paper's transcription;
* ``techniques`` — one line per implemented technique with its
  classification cells;
* ``experiments`` — the experiment index (id, claim, benchmark target);
* ``demo`` — run a tiny end-to-end NVP demonstration;
* ``trace`` — run a named scenario under telemetry and print the span
  timeline (optionally exporting the raw spans as JSONL or the whole
  trace as Chrome trace-event JSON for Perfetto);
* ``metrics`` — run a scenario and dump its metrics registry as
  Prometheus text, OpenMetrics text (with histogram quantiles) or
  JSON;
* ``report`` — run one scenario (or all of them) under a single
  telemetry session and render the per-technique SLI health table
  (availability, failure rate, recovery-latency percentiles, wall
  trials/sec), with optional Chrome-trace and OpenMetrics exports and
  pool fan-out;
* ``top`` — the live campaign dashboard: run the injection matrix with
  delta streaming and render a refreshing per-technique table while
  cells execute (``--format json`` emits one ``repro-top-frame/v1``
  document per refresh; the final frame embeds the canonical report,
  byte-identical to a non-streaming ``campaign --format json`` run);
* ``bench`` — run the benchmark suite through the deterministic
  parallel runtime (warm worker pool, prewarmed before timing), check
  for results drift, and write ``BENCH_harness.json`` timings;
  ``--incremental`` serves benchmark files unchanged since the last
  run from a content-addressed result store;
* ``lint`` — redundancy-aware static analysis (diversity, determinism,
  process-safety, pattern misuse) with baseline suppression, used as
  the CI gate (``repro lint src/repro --fail-on warning``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro.techniques  # noqa: F401 - populates the registry
from repro import __version__
from repro.taxonomy.paper import PAPER_TABLE2
from repro.taxonomy.registry import default_registry
from repro.taxonomy.tables import render_diff, render_table1, render_table2

#: (experiment id, short claim, benchmark file) — mirrors DESIGN.md §4.
EXPERIMENT_INDEX = (
    ("T1", "Table 1: taxonomy dimensions", "bench_table1_taxonomy.py"),
    ("T2", "Table 2: seventeen techniques classified",
     "bench_table2_classification.py"),
    ("F1", "Figure 1: three architectural patterns",
     "bench_figure1_patterns.py"),
    ("C1", "2k+1 versions tolerate k failures", "bench_c1_nvp_tolerance.py"),
    ("C2", "correlated faults erode the N-version gain",
     "bench_c2_correlated_versions.py"),
    ("C3", "cost/efficacy: NVP vs recovery blocks vs self-checking",
     "bench_c3_cost_efficacy.py"),
    ("C4", "rejuvenation period minimising completion time",
     "bench_c4_rejuvenation.py"),
    ("C5", "micro-reboot vs full reboot", "bench_c5_microreboot.py"),
    ("C6", "RX survival per fault class", "bench_c6_rx_perturbation.py"),
    ("C7", "process replicas detect memory attacks",
     "bench_c7_process_replicas.py"),
    ("C8", "data re-expression escapes failure regions",
     "bench_c8_data_diversity.py"),
    ("C9", "substitution availability vs number of alternates",
     "bench_c9_service_substitution.py"),
    ("C10", "GP repair of seeded faults", "bench_c10_genetic_repair.py"),
    ("C11", "workaround success vs intrinsic redundancy",
     "bench_c11_workarounds.py"),
    ("C12", "robust structures detect/correct damage",
     "bench_c12_robust_data.py"),
    ("C13", "checkpoint-recovery: Heisenbugs yes, Bohrbugs no",
     "bench_c13_checkpoint.py"),
    ("C14", "healer wrappers stop heap smashing", "bench_c14_healers.py"),
    ("C15", "hot-spare failover needs no rollback",
     "bench_c15_hot_spare.py"),
    ("C16", "self-optimizing beats static pins",
     "bench_c16_self_optimizing.py"),
    ("C17", "N-variant data detects corruption",
     "bench_c17_nvariant_data.py"),
    ("A1", "ablation: Huang rejuvenation availability model",
     "bench_a1_rejuvenation_markov.py"),
    ("A2", "ablation: voter choice per failure mix",
     "bench_a2_voter_ablation.py"),
    ("A3", "ablation: recovery blocks without rollback",
     "bench_a3_rollback_ablation.py"),
    ("A4", "ablation: SQL replication canonicalisation/reconciliation",
     "bench_a4_sql_replication.py"),
    ("A5", "ablation: RX perturbation menu order",
     "bench_a5_rx_menu_order.py"),
    ("H1", "harness: PatternStats.inc disabled path is allocation-free",
     "bench_h1_stats_hotpath.py"),
    ("H2", "harness: telemetry overhead per site, enabled and disabled",
     "bench_observe_overhead.py"),
    ("H3", "harness: warm pools amortise spawn; result store makes "
     "re-runs incremental", "bench_h2_pool_reuse.py"),
    ("H4", "harness: batched trials are byte-identical and pay the "
     "store's per-record tax per batch", "bench_h4_batch_kernel.py"),
    ("H5", "harness: delta streaming folds byte-identically with "
     "pinned overhead", "bench_h5_stream_overhead.py"),
    ("H6", "harness: sharded campaigns checkpoint every shard and "
     "resume byte-identically", "bench_h6_shard_resume.py"),
)


def _cmd_tables(args) -> int:
    print(render_table1())
    print()
    entries = [default_registry.entry(row.name) for row in PAPER_TABLE2]
    print(render_table2(entries))
    print()
    print(render_diff(default_registry.diff_against(PAPER_TABLE2)))
    return 0


def _cmd_techniques(args) -> int:
    for entry in default_registry.entries():
        patterns = ", ".join(str(p) for p in entry.patterns) or "-"
        print(f"{entry.name}")
        print(f"    intention:   {entry.intention}")
        print(f"    redundancy:  {entry.rtype}")
        print(f"    adjudicator: {entry.adjudicator_cell}")
        print(f"    faults:      {entry.faults_cell}")
        print(f"    patterns:    {patterns}")
    return 0


def _cmd_experiments(args) -> int:
    width = max(len(eid) for eid, _, _ in EXPERIMENT_INDEX)
    for eid, claim, bench in EXPERIMENT_INDEX:
        print(f"{eid:<{width}}  {claim}")
        print(f"{'':<{width}}  -> pytest benchmarks/{bench} "
              f"--benchmark-only")
    return 0


def _cmd_recommend(args) -> int:
    from repro.taxonomy.advisor import recommend
    from repro.taxonomy.dimensions import FaultClass

    fault = {
        "bohrbug": FaultClass.BOHRBUG,
        "heisenbug": FaultClass.HEISENBUG,
        "malicious": FaultClass.MALICIOUS,
        "development": FaultClass.DEVELOPMENT,
    }[args.fault]
    recommendations = recommend(
        fault, budget=args.budget,
        can_design_adjudicator=not args.no_adjudicator)
    print(f"techniques for {args.fault} faults "
          f"(budget={args.budget}"
          f"{', no explicit adjudicators' if args.no_adjudicator else ''}):"
          )
    for rank, recommendation in enumerate(recommendations[:args.top], 1):
        entry = recommendation.entry
        print(f"{rank}. {entry.name}  "
              f"[{entry.intention}/{entry.rtype}/"
              f"{entry.adjudicator_cell}]")
        print(f"   {recommendation.rationale}")
    return 0


def _build_campaign(args, stream=None):
    """The demo injection matrix shared by ``campaign`` and ``top``.

    Returns ``(campaign, store)``.  The factories are module-level
    callables (:data:`~repro.harness.campaign.DEMO_PROTECTORS`,
    :data:`~repro.harness.campaign.DEMO_FAULTS` and the default
    ``x + 1`` oracle), so the campaign pickles and ``--workers N``
    runs its cells on the warm process pool.
    """
    from repro.harness.campaign import (
        DEMO_FAULTS,
        DEMO_PROTECTORS,
        FaultCampaign,
    )

    store = None
    if getattr(args, "store", None) and not getattr(args, "shards", None):
        # Under --shards the path is a *checkpoint* store instead (see
        # _make_sharded): cells are addressed through it by the shard
        # checkpointer, never consulted per cell here.
        from repro.runtime.store import ResultStore

        store = ResultStore(args.store, name="campaign")
    campaign = FaultCampaign(
        protectors=DEMO_PROTECTORS, faults=DEMO_FAULTS,
        requests=args.requests, seed=args.seed,
        workers=args.workers, batch=getattr(args, "batch", None),
        store=store, stream=stream)
    return campaign, store


def _make_sharded(campaign, args):
    """The sharded engine for ``--shards``, or ``None`` without it.

    The checkpoint store (``--store`` under ``--shards``) is opened
    **quiet**: checkpoint traffic differs between an interrupted and an
    uninterrupted run, and leaking it into the SLI section would break
    the resumed-run byte-identity contract.
    """
    if not getattr(args, "shards", None):
        return None
    from repro.harness.shard import ShardedCampaign

    store = None
    if getattr(args, "store", None):
        from repro.runtime.store import ResultStore

        store = ResultStore(args.store, name="campaign-shards",
                            quiet=True)
    if getattr(args, "resume", False) and store is None:
        raise SystemExit("error: --resume needs --store PATH "
                         "(the checkpoint log to resume from)")
    return ShardedCampaign(campaign, shards=args.shards, store=store,
                           resume=getattr(args, "resume", False),
                           max_shards=getattr(args, "max_shards", None))


def _evaluate_gate(document, args) -> dict:
    """Run the acceptance gates over a finished campaign report."""
    import json

    from repro.harness.gates import evaluate_campaign

    baseline = bench = None
    if getattr(args, "gate_baseline", None):
        with open(args.gate_baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    if getattr(args, "gate_bench", None):
        with open(args.gate_bench, encoding="utf-8") as handle:
            bench = json.load(handle)
    return evaluate_campaign(
        document, baseline=baseline, bench=bench,
        tolerance=getattr(args, "gate_tolerance", 0.0))


#: Exit status of a rejected ``repro campaign --gate`` (2 is argparse's).
GATE_EXIT_REJECTED = 3


def _campaign_report(cells, monitor, args) -> dict:
    """The canonical campaign report document.

    Fully deterministic for a given campaign configuration: the cells
    are pure functions of their labels and the base seed, and the
    monitor carries no wall clock, so a streaming run's final frame
    embeds this byte-for-byte equal to a non-streaming run's output
    (the CI observe-smoke job pins exactly that).  It reads no span and
    no counter, which is why the sessions that feed it keep events
    only.
    """
    import dataclasses

    return {
        "schema": "repro-campaign-report/v1",
        "requests": args.requests,
        "seed": args.seed,
        "workers": args.workers,
        "cells": [dataclasses.asdict(cell) for cell in cells],
        "sli": monitor.as_dict(),
    }


def _render_frame_text(frame) -> str:
    """One dashboard frame as a refreshing text screen."""
    from repro.taxonomy.tables import format_table

    cells = frame["cells"]
    total = cells["total"] if cells["total"] is not None else "?"
    tps = frame["trials_per_sec"]
    elapsed = frame["elapsed_sec"]
    head = (f"repro top — frame {frame['seq']}"
            f"{' (final)' if frame['final'] else ''}: "
            f"cells {cells['done']}/{total}"
            + (f", {elapsed:.1f}s elapsed" if elapsed is not None else "")
            + (f", {tps:.1f} trials/sec" if tps is not None else ""))
    lines = [head]
    stream = frame["stream"]
    if stream is not None:
        lines.append(f"stream: {stream['received']} deltas received, "
                     f"{stream['folded_live']} folded live, "
                     f"{stream['invalid']} invalid")
    pools = frame["pool"] or []
    for pool in pools:
        lines.append(f"pool: {pool['backend']}x{pool['workers']} "
                     f"warm={pool['warm']} reuses={pool['reuses']}")
    flight = frame["flight"]
    lines.append(f"flight recorder: {flight['captured']} captured, "
                 f"window {flight['window']}, {flight['dumps']} dumps")
    rows = []
    for row in frame["sli"]["techniques"]:
        avail = row["availability"]
        tput = row["throughput"]
        rows.append([
            row["technique"],
            "-" if avail is None else f"{avail:.4f}",
            f"{row['outcomes']}/{row['outcomes_seen']}",
            "-" if tput is None else f"{tput:.3g}",
            *(("-" if row[f"recovery_p{p}"] is None
               else f"{row[f'recovery_p{p}']:g}") for p in (50, 95, 99)),
        ])
    lines.append(format_table(
        ("technique", "avail", "outcomes", "tput/u", "rec p50",
         "rec p95", "rec p99"),
        rows, title=f"live SLIs (window={frame['sli']['window']})"))
    return "\n".join(lines)


def _emit_frame(frame, fmt: str) -> None:
    """Print one validated dashboard frame (json: one line per frame)."""
    import json

    from repro.observe.stream import validate_frame

    validate_frame(frame)
    if fmt == "json":
        print(json.dumps(frame, sort_keys=True, default=str), flush=True)
    else:
        if sys.stdout.isatty():  # pragma: no cover - interactive only
            print("\x1b[2J\x1b[H", end="")
        print(_render_frame_text(frame), flush=True)
        print()


def _live_frames(args, campaign, sharded, run):
    """The ``--live`` dashboard around ``run()``: ``(cells, dashboard)``.

    The matrix runs on a worker thread with the campaign's stream
    attached; the main thread prints a frame every ``--interval``
    seconds from the stream's *live view*, which the pool offers each
    chunk's deltas as the session folds them (a one-worker run's chunk
    offers one per cell as it runs).  The caller emits the final frame,
    whose embedded report comes from the session.
    """
    import dataclasses
    import threading
    import time

    from repro import observe
    from repro.observe.stream import LiveDashboard
    from repro.runtime.pool import pool_stats

    interval = max(0.05, args.interval)
    stream = campaign.stream
    live_view = stream.live
    dash = LiveDashboard(
        observe.SliMonitor(live_view.bus, window=args.window,
                           wall_clock=time.perf_counter),
        stream=stream, wall_clock=time.perf_counter,
        cells_total=len(campaign.protectors) * len(campaign.faults),
        counts=lambda: dict(live_view.bus.counts), pool_info=pool_stats,
        shards=(None if sharded is None
                else lambda: dataclasses.asdict(sharded.stats)))

    def _snap():
        with stream.locked():
            return dash.frame()

    box: dict = {}

    def _work():
        try:
            box["cells"] = run()
        except BaseException as exc:  # re-raised after join
            box["error"] = exc

    worker = threading.Thread(target=_work, daemon=True,
                              name="repro-campaign-live")
    worker.start()
    _emit_frame(_snap(), args.format)
    while worker.is_alive():
        worker.join(timeout=interval)
        if worker.is_alive():
            _emit_frame(_snap(), args.format)
    if "error" in box:
        raise box["error"]
    # Honour --frames as a floor (CI asserts a minimum count
    # without having to win a race against a fast campaign).
    while dash.frames < max(1, args.frames) - 1:
        _emit_frame(_snap(), args.format)
    return box["cells"], dash


def _with_flight_out(args, command: str, run) -> int:
    """Run ``run(args)`` and, with ``--flight-out PATH``, write the
    process flight-recorder window to PATH as a ``repro-events-jsonl/v1``
    log on every exit, a raised one included; a window that cannot be
    written exits 1."""
    if not args.flight_out:
        return run(args)
    from repro.observe import flightrec

    before = flightrec.recorder().dumps
    status = 1
    try:
        status = run(args)
    finally:
        recorder = flightrec.recorder()
        text = recorder.dump_jsonl("cli-flight-out", command=command,
                                   failure_dumps=recorder.dumps - before)
        error = _write_file(args.flight_out, text + "\n")
        if error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
    return status


def _cmd_campaign(args) -> int:
    return _with_flight_out(
        args, "campaign-live" if args.live else "campaign", _run_campaign)


def _run_campaign(args) -> int:
    """``campaign`` and ``top``: run the matrix and print its report.

    Only the plain text matrix runs with telemetry off.  Every output
    that reads telemetry (JSON, ``--shards``, ``--gate``, ``--live``
    and ``--flight-out``) runs the matrix in one events-only session:
    the report reads the cells and the SLI fold of events, and the
    flight window holds the events.  Under ``--live`` a dashboard
    streams while the matrix runs, and its final frame embeds the
    report a plain JSON run prints.
    """
    import json

    from repro import observe

    stream = None
    if args.live:
        from repro.observe.stream import TelemetryStream

        # Frames read events only, as the report does.
        stream = TelemetryStream(live=observe.Telemetry(events_only=True))
    campaign, store = _build_campaign(args, stream=stream)
    sharded = _make_sharded(campaign, args)
    run = campaign.run if sharded is None else sharded.run
    gate = getattr(args, "gate", False)
    truncated = False
    report = verdict = None
    if not (args.live or sharded is not None or gate
            or args.format == "json" or args.flight_out):
        cells = run()
    else:
        with observe.session(events_only=True) as tel:
            monitor = observe.SliMonitor(tel.bus, window=args.window)
            if args.live:
                cells, dash = _live_frames(args, campaign, sharded, run)
            else:
                cells = run()
        if sharded is not None:
            # On stderr, so report bytes stay identical whether shards
            # were served or executed.
            print(sharded.stats.summary(), file=sys.stderr)
            truncated = sharded.stats.truncated
        if truncated:
            # No complete grid: no report, and no gate judges it.
            print("campaign stopped by --max-shards; resume with "
                  "--resume to finish", file=sys.stderr)
        else:
            report = _campaign_report(cells, monitor, args)
            if gate:
                verdict = _evaluate_gate(report, args)
                report = dict(report, verdict=verdict)
    if args.live:
        _emit_frame(dash.frame(final=True, report=report), args.format)
    elif truncated:
        pass
    elif args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print(campaign.render_from(
            cells, title="correct-result rate: technique x fault class"))
        if store is not None:
            stats = store.stats()
            print(f"\nresult store: {stats['hits']} hits, "
                  f"{stats['misses']} misses, {stats['writes']} writes "
                  f"({args.store})")
        if verdict is not None:
            from repro.harness.report import render_verdict

            print()
            print(render_verdict(verdict))
    if verdict is not None and not verdict["is_accepted"]:
        return GATE_EXIT_REJECTED
    return 0


def _cmd_demo(args) -> int:
    from repro import NVersionProgramming, diverse_versions
    from repro.exceptions import NoMajorityError

    versions = diverse_versions(lambda x: x * x, n=args.versions,
                                failure_probability=args.failure_rate,
                                seed=args.seed)
    nvp = NVersionProgramming(versions)
    ok = 0
    trials = 500
    for x in range(trials):
        try:
            ok += nvp.execute(x) == x * x
        except NoMajorityError:
            pass
    single = 1 - args.failure_rate
    print(f"{args.versions}-version programming over versions failing on "
          f"{args.failure_rate:.0%} of inputs:")
    print(f"  single version reliability   {single:.2%}")
    print(f"  voted system reliability     {ok / trials:.2%}")
    print(f"  failures masked              {nvp.stats.masked_failures}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import Baseline, render_github, render_json, render_text
    from repro.lint.engine import _configured_engine

    select = ([rid.strip() for rid in args.select.split(",") if rid.strip()]
              if args.select else None)
    try:
        if args.certificate and not args.deep:
            raise ValueError("--certificate requires --deep")
        engine = _configured_engine(
            select, None if args.write_baseline else args.baseline,
            args.diversity_threshold, args.deep, args.deep_cache)

        if args.write_baseline:
            if not args.baseline:
                raise ValueError("--write-baseline requires --baseline PATH")
            new_baseline = engine.run_for_baseline(args.paths)
            new_baseline.write(args.baseline)
            print(f"{len(new_baseline)} finding"
                  f"{'' if len(new_baseline) == 1 else 's'} written to "
                  f"{args.baseline}")
            return 0

        if args.prune_baseline:
            if not args.baseline:
                raise ValueError("--prune-baseline requires --baseline PATH")
            fresh = engine.run_for_baseline(args.paths)
            current: dict = {}
            for entry in fresh.entries:
                fp = entry["fingerprint"]
                current[fp] = current.get(fp, 0) + 1
            kept, removed = Baseline.load(args.baseline).pruned(current)
            kept.write(args.baseline)
            print(f"{removed} stale entr{'y' if removed == 1 else 'ies'} "
                  f"pruned from {args.baseline} ({len(kept)} kept)")
            return 0

        report = engine.run(args.paths)
        if args.certificate:
            from repro.lint.deep import Certificate

            Certificate(engine.analysis.certificate()).save(
                args.certificate)
    except (FileNotFoundError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    renderer = {"json": render_json, "github": render_github,
                "text": render_text}[args.format]
    print(renderer(report), end="" if args.format == "json" else "\n")
    return report.exit_code(args.fail_on)


def _cmd_certify(args) -> int:
    """Analyze one task module and report / export its certificate."""
    import json
    import os

    from repro.lint.deep import Certificate, DeepAnalysis, module_name_for
    from repro.lint.deep.graph import import_closure
    from repro.lint.registry import ModuleSource

    target = args.target
    module_part, _, func = target.partition(":")
    try:
        if os.path.isfile(module_part):
            path = module_part
        else:
            import importlib.util

            spec = importlib.util.find_spec(module_part)
            if spec is None or not spec.origin or not \
                    os.path.isfile(spec.origin):
                raise FileNotFoundError(
                    f"cannot locate module {module_part!r} (give a file "
                    f"path or an importable dotted name)")
            path = spec.origin
        modules = []
        for source_path in sorted(import_closure(path)):
            try:
                with open(source_path, "r", encoding="utf-8") as handle:
                    modules.append(ModuleSource.parse(source_path,
                                                      handle.read()))
            except (OSError, SyntaxError, ValueError):
                continue
        analysis = DeepAnalysis()
        analysis.summarize(modules)
        analysis.propagate()
        certificate = Certificate(analysis.certificate())
        if args.out:
            certificate.save(args.out)
            print(f"certificate for {len(certificate)} functions "
                  f"written to {args.out}")
        module_name, _ = module_name_for(path)
        if func:
            keys = [f"{module_name}:{func}"]
            if keys[0] not in certificate.functions:
                raise KeyError(f"no function {func!r} in {module_name} "
                               f"(module analyzed: {path})")
        else:
            prefix = f"{module_name}:"
            keys = [key for key in sorted(certificate.functions)
                    if key.startswith(prefix)]
    except (FileNotFoundError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    dirty = 0
    for key in keys:
        entry = certificate.functions[key]
        verdicts = ", ".join(
            f"{prop}={'yes' if entry[prop] else 'NO'}"
            for prop in ("deterministic", "picklable", "pure"))
        print(f"{key}: {verdicts}")
        hazards = entry.get("hazards", {})
        if hazards:
            dirty += 1
            for label in sorted(hazards):
                chain = hazards[label]
                hops = [hop["function"].split(":", 1)[1]
                        for hop in chain if "function" in hop]
                terminal = chain[-1]
                via = f" via {' -> '.join(hops)}" if hops else ""
                print(f"  {label}: {terminal.get('detail', '?')} "
                      f"({terminal['path']}:{terminal['line']}){via}")
    if args.json:
        print(json.dumps({key: certificate.functions[key]
                          for key in keys}, indent=2, sort_keys=True))
    return 1 if dirty else 0


def _run_scenario(args):
    """Run ``args.scenario`` inside a telemetry session.

    Returns ``(telemetry, summary_metrics)``; shared by ``trace`` and
    ``metrics``.
    """
    from repro import observe
    from repro.harness.scenarios import SCENARIOS

    with observe.session() as tel:
        metrics = SCENARIOS[args.scenario](args.requests, args.seed)
    return tel, metrics


def _write_file(path: str, content: str) -> Optional[str]:
    """Write ``content`` to ``path``; returns an error message or None."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        return f"cannot write {path}: {exc}"
    return None


def _cmd_trace(args) -> int:
    tel, metrics = _run_scenario(args)
    print(f"scenario {args.scenario} "
          f"(requests={args.requests}, seed={args.seed}):")
    for key, value in metrics.items():
        print(f"  {key} = {value}")
    print()
    print(tel.tracer.timeline(limit=args.limit))
    if args.jsonl:
        error = _write_file(args.jsonl, tel.tracer.export_jsonl())
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"\n{len(tel.tracer.spans)} spans written to {args.jsonl}")
    if args.out:
        from repro.observe.export import render_chrome_trace

        error = _write_file(args.out, render_chrome_trace(tel.tracer))
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"\nChrome trace written to {args.out} "
              f"(load it at https://ui.perfetto.dev)")
    return 0


def _cmd_metrics(args) -> int:
    import json

    tel, _ = _run_scenario(args)
    if args.format == "json":
        print(json.dumps(tel.metrics.as_dict(), sort_keys=True, indent=2))
    elif args.format == "openmetrics":
        from repro.observe.export import render_openmetrics

        print(render_openmetrics(tel.metrics), end="")
    else:
        print(tel.metrics.render_prometheus(), end="")
    return 0


def _cmd_report(args) -> int:
    import json
    import time

    from repro import observe
    from repro.harness.scenarios import SCENARIOS, run_scenario_task
    from repro.runtime.pmap import ParallelMap

    names = (sorted(SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    tasks = [(name, args.requests, args.seed) for name in names]
    with observe.session() as tel:
        # The injected wall clock feeds the text report's trials/sec
        # gauge.  The JSON document gets no wall clock: its wall
        # fields stay null so the emitted bytes remain a pure function
        # of (scenario, requests, seed) — any worker count must print
        # the identical document.
        wall = time.perf_counter if args.format != "json" else None
        monitor = observe.SliMonitor(tel.bus, window=args.window,
                                     wall_clock=wall)
        results = ParallelMap(workers=args.workers).map(
            run_scenario_task, tasks)
    if args.format == "json":
        document = {"requests": args.requests, "seed": args.seed,
                    "scenarios": results, "sli": monitor.as_dict()}
        print(json.dumps(document, sort_keys=True, indent=2, default=str))
    else:
        print(f"scenarios: {', '.join(names)} "
              f"(requests={args.requests}, seed={args.seed})")
        print()
        print(monitor.render())
        tps = monitor.trials_per_sec()
        if tps is not None:
            print(f"\nthroughput: {tps:.1f} trials/sec "
                  f"({monitor.as_dict()['outcomes_total']} outcomes)")
    from repro.observe.export import render_chrome_trace, render_openmetrics

    exports = []
    if args.trace_out:
        exports.append((args.trace_out, render_chrome_trace(tel.tracer)))
    if args.metrics_out:
        exports.append((args.metrics_out, render_openmetrics(tel.metrics)))
    for path, content in exports:
        error = _write_file(path, content)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    return 0


#: The subcommands, in the order ``repro --help`` lists them.
COMMANDS = ("tables", "techniques", "experiments", "recommend", "campaign",
            "top", "bench", "lint", "certify", "demo", "trace", "metrics",
            "report")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    With ``command`` (one of :data:`COMMANDS`) only that subcommand's
    parser is built, which costs a fraction of building all of them.
    A command line that names ``command`` first parses to the same
    namespace, and prints the same help, usage and errors, with either
    parser; :func:`main` relies on that.
    """
    if command is not None and command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Redundancy-based software fault handling "
                    "(Carzaniga, Gorla & Pezzè, 2008 — reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # The usage line a top-level error prints ("unrecognized
        # arguments") lists every command, as the full parser's does.
        sub = parser.add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(COMMANDS) + "}")

    def wanted(name: str) -> bool:
        return command is None or command == name

    if wanted("tables"):
        sub.add_parser("tables", help="render Tables 1 and 2 and diff "
                                      "against the paper").set_defaults(
            func=_cmd_tables)
    if wanted("techniques"):
        sub.add_parser("techniques",
                       help="list the seventeen implemented techniques"
                       ).set_defaults(func=_cmd_techniques)
    if wanted("experiments"):
        sub.add_parser("experiments",
                       help="list the experiment index and bench targets"
                       ).set_defaults(func=_cmd_experiments)

    if wanted("recommend"):
        rec = sub.add_parser("recommend",
                             help="rank techniques for a fault class")
        rec.add_argument("fault", choices=("bohrbug", "heisenbug",
                                           "malicious", "development"))
        rec.add_argument("--budget", choices=("low", "high"), default="high")
        rec.add_argument("--no-adjudicator", action="store_true",
                         help="no application-specific failure detector can "
                              "be engineered")
        rec.add_argument("--top", type=int, default=5)
        rec.set_defaults(func=_cmd_recommend)

    def live_args(sub_parser):
        """Flags shared by ``campaign --live`` and ``top``."""
        sub_parser.add_argument(
            "--interval", type=float, default=1.0,
            help="seconds between dashboard refreshes")
        sub_parser.add_argument(
            "--frames", type=int, default=0, metavar="N",
            help="emit at least N frames (a floor, not a cap — lets CI "
                 "assert a frame count without racing the campaign)")
        sub_parser.add_argument(
            "--window", type=int, default=256,
            help="SLI sliding-window size, in samples")
        sub_parser.add_argument(
            "--flight-out", metavar="PATH", default=None,
            help="write the process flight-recorder window as a "
                 "repro-events-jsonl/v1 log on exit")

    if wanted("campaign"):
        campaign = sub.add_parser(
            "campaign", help="run a technique x fault-class injection matrix")
        campaign.add_argument("--requests", type=int, default=120)
        campaign.add_argument("--seed", type=int, default=7)
        campaign.add_argument("--workers", type=int, default=1,
                              help="fan cells out over N worker processes: "
                                   "cells byte-identical to serial at any N")
        campaign.add_argument("--batch", type=int, default=None, metavar="B",
                              help="cells per pool chunk: coarser units, "
                                   "~B× less pickle traffic, byte-identical "
                                   "matrix for any B")
        campaign.add_argument("--store", metavar="PATH", default=None,
                              help="serve unchanged cells from a result-store "
                                   "log at PATH (opt-in incremental re-runs)")
        campaign.add_argument("--format", choices=("text", "json"),
                              default="text",
                              help="json: the canonical campaign report "
                                   "document (deterministic; what a live "
                                   "run's final frame embeds)")
        campaign.add_argument("--live", action="store_true",
                              help="stream telemetry deltas and refresh a "
                                   "dashboard while the matrix runs "
                                   "(equivalent to 'repro top')")
        campaign.add_argument("--shards", type=int, default=None, metavar="N",
                              help="partition the matrix into N deterministic "
                                   "shards, each one pool work unit; with "
                                   "--store every finished shard is "
                                   "checkpointed (repro-campaign-shard/v1)")
        campaign.add_argument("--resume", action="store_true",
                              help="serve already-checkpointed shards from "
                                   "the --store log and execute only the "
                                   "remainder (byte-identical report)")
        campaign.add_argument("--max-shards", type=int, default=None,
                              metavar="K",
                              help="stop after K completed shards "
                                   "(deterministic interruption, for tests "
                                   "and the CI resume smoke)")
        campaign.add_argument("--gate", action="store_true",
                              help="evaluate the repro-campaign-verdict/v1 "
                                   "acceptance gates; exit 3 when rejected")
        campaign.add_argument("--gate-baseline", metavar="PATH", default=None,
                              help="baseline campaign report JSON for the "
                                   "telemetry-drift gate")
        campaign.add_argument("--gate-bench", metavar="PATH", default=None,
                              help="bench report JSON (BENCH_harness.json) "
                                   "for the bench-regression gate")
        campaign.add_argument("--gate-tolerance", type=float, default=0.0,
                              help="absolute rate tolerance for the "
                                   "telemetry-drift gate")
        live_args(campaign)
        campaign.set_defaults(func=_cmd_campaign)

    if wanted("top"):
        top = sub.add_parser(
            "top", help="live campaign dashboard: stream telemetry deltas "
                        "and refresh per-technique SLIs while cells run")
        top.add_argument("--requests", type=int, default=120)
        top.add_argument("--seed", type=int, default=7)
        top.add_argument("--workers", type=int, default=2,
                         help="pool workers for the campaign under watch")
        top.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="json: one repro-top-frame/v1 document per "
                              "refresh, final frame embeds the canonical "
                              "report")
        live_args(top)
        top.set_defaults(func=_cmd_campaign, live=True)

    if wanted("bench"):
        from repro.runtime.bench import configure_parser as _configure_bench

        bench = sub.add_parser(
            "bench", help="run the benchmark suite through the parallel "
                          "runtime and check for results drift")
        _configure_bench(bench)

    if wanted("lint"):
        lint = sub.add_parser(
            "lint", help="redundancy-aware static analysis: diversity, "
                         "determinism, process-safety, pattern misuse")
        lint.add_argument("paths", nargs="+",
                          help="files or directories to analyse")
        lint.add_argument("--format", choices=("text", "json", "github"),
                          default="text",
                          help="report format (github emits workflow-command "
                               "annotations for pull-request diffs)")
        lint.add_argument("--fail-on",
                          choices=("error", "warning", "info", "never"),
                          default="error",
                          help="lowest severity that fails the run "
                               "(default: error)")
        lint.add_argument("--baseline", metavar="PATH",
                          help="baseline file of accepted findings "
                               "(see docs/STATIC_ANALYSIS.md)")
        lint.add_argument("--write-baseline", action="store_true",
                          help="accept every current finding into "
                               "--baseline and exit")
        lint.add_argument("--select", metavar="RULES",
                          help="comma-separated rule ids to run "
                               "(e.g. DET001,DIV001)")
        lint.add_argument("--diversity-threshold", type=float, default=None,
                          metavar="S",
                          help="similarity in (0, 1] at which DIV001 flags "
                               "a near-clone pair (default: 0.9)")
        lint.add_argument("--prune-baseline", action="store_true",
                          help="rewrite --baseline dropping entries whose "
                               "finding no longer exists, and exit")
        lint.add_argument("--deep", action="store_true",
                          help="also run the whole-program pass: call-graph "
                               "propagation of determinism / picklability / "
                               "purity (XDET*/XPROC* rules)")
        lint.add_argument("--deep-cache", metavar="PATH", default=None,
                          help="content-addressed summary cache for --deep "
                               "(a result-store log; warm re-lints only "
                               "re-summarize edited modules)")
        lint.add_argument("--certificate", metavar="PATH", default=None,
                          help="with --deep: write the determinism "
                               "certificate JSON consumed by certify= "
                               "runtime enforcement")
        lint.set_defaults(func=_cmd_lint)

    if wanted("certify"):
        certify = sub.add_parser(
            "certify", help="deep-analyze one task module and report its "
                            "determinism certificate")
        certify.add_argument("target", metavar="MODULE[:FUNC]",
                             help="a file path or importable dotted module, "
                                  "optionally narrowed to one function "
                                  "(e.g. mytasks.py:my_trial)")
        certify.add_argument("--out", metavar="PATH", default=None,
                             help="write the full certificate JSON to PATH")
        certify.add_argument("--json", action="store_true",
                             help="also print the selected entries as JSON")
        certify.set_defaults(func=_cmd_certify)

    if wanted("demo"):
        demo = sub.add_parser("demo", help="run a small NVP demonstration")
        demo.add_argument("--versions", type=int, default=5)
        demo.add_argument("--failure-rate", type=float, default=0.15)
        demo.add_argument("--seed", type=int, default=0)
        demo.set_defaults(func=_cmd_demo)

    def scenario_args(sub_parser):
        from repro.harness.scenarios import SCENARIOS

        sub_parser.add_argument("scenario", choices=sorted(SCENARIOS))
        sub_parser.add_argument("--requests", type=int, default=50)
        sub_parser.add_argument("--seed", type=int, default=7)

    if wanted("trace"):
        trace = sub.add_parser(
            "trace", help="trace a scenario and print its span timeline")
        scenario_args(trace)
        trace.add_argument("--limit", type=int, default=200,
                           help="maximum timeline rows to print")
        trace.add_argument("--jsonl", metavar="PATH",
                           help="also export raw spans as JSON lines")
        trace.add_argument("--out", metavar="PATH",
                           help="also export the trace as Chrome trace-event "
                                "JSON (loadable in Perfetto)")
        trace.set_defaults(func=_cmd_trace)

    if wanted("metrics"):
        metrics = sub.add_parser(
            "metrics", help="run a scenario and dump its metrics registry")
        scenario_args(metrics)
        metrics.add_argument("--format",
                             choices=("text", "json", "openmetrics"),
                             default="text",
                             help="text = Prometheus exposition, openmetrics "
                                  "adds histogram quantiles and '# EOF'")
        metrics.set_defaults(func=_cmd_metrics)

    if wanted("report"):
        from repro.harness.scenarios import SCENARIOS

        report = sub.add_parser(
            "report", help="per-technique SLI health report (availability, "
                           "failure rate, recovery-latency percentiles)")
        report.add_argument("scenario", choices=("all", *sorted(SCENARIOS)),
                            help="scenario to report on, or 'all'")
        report.add_argument("--requests", type=int, default=50)
        report.add_argument("--seed", type=int, default=7)
        report.add_argument("--window", type=int, default=256,
                            help="sliding-window size per technique, "
                                 "in samples")
        report.add_argument("--format", choices=("text", "json"),
                            default="text")
        report.add_argument("--trace-out", metavar="PATH",
                            help="export the session trace as Chrome "
                                 "trace-event JSON")
        report.add_argument("--metrics-out", metavar="PATH",
                            help="export the session metrics as OpenMetrics "
                                 "text")
        report.add_argument("--workers", type=int, default=1,
                            help="fan scenarios out over a worker pool "
                                 "(telemetry merges in submission order)")
        report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    When the first argument names a command only that command's parser
    is built; anything else (``--help``, ``--version``, no command or
    an unknown one) gets the full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The live dashboard reads the session: identical reports, pinned
disabled path (H5).

``repro campaign --live`` (and ``repro top``) draws its frames from the
run's own telemetry session: the dashboard's SLI monitor and one
``campaign.cell`` subscription sit on the session's bus beside the
report's monitor, and nothing in the runtime knows they are there.
Three claims follow:

* **same report** — the final frame of a ``--workers 1`` and of a
  ``--workers 2`` live campaign embeds, byte for byte, the report the
  plain ``--format json`` run of the same campaign prints;
* **same record** — each live run's flight recorder captures exactly
  as many records as its plain twin's: watching adds nothing to what
  the session records;
* **disabled path unchanged** — after the live runs, the disabled
  resolve-and-check site stays allocation-free and within the same
  pinned ns/site budget as the baseline observe benchmark, and within
  a drift ratio of its own reading before them.

The per-trial CPU of a serial live run against its plain twin
(``process_time``, best of 3 rounds) is recorded, not gated, in the
``"live"`` section of ``BENCH_harness.json``, next to host metadata.
It is timed on one worker because a worker process's CPU time does not
show in this process's ``process_time``.

The saved results table carries only the deterministic facts; the
measured timings land in the JSON report.
"""

import contextlib
import io
import json
import time
import tracemalloc

from repro import observe
from repro.cli import main
from repro.harness.report import render_table
from repro.observe import flightrec
from repro.runtime.bench import update_harness_json

from _common import BENCH_HARNESS_JSON, save_result

#: Disabled-path timing iterations (same scale as bench_observe).
N_SITES = 20_000

#: Allocation budget for the disabled check (same contract as H1/OBS).
ALLOCATION_BUDGET = 512

#: Same pinned ceiling as bench_observe_overhead's disabled path: the
#: live runs must not move the disabled check out of budget.
DISABLED_BUDGET_NS = 2000.0

#: After the live runs vs before, disabled path: the ratio a real
#: regression (per-site lock traffic, recorder work) would blow through
#: while host noise on a 20k-iteration floor stays well under.
DRIFT_RATIO = 5.0

#: The campaign both modes run (the CI observe-smoke one).
CAMPAIGN = ["campaign", "--requests", "20", "--seed", "7",
            "--format", "json"]
LIVE = ["--live", "--interval", "0.05"]

#: Trials one campaign runs: 16 cells of 20 requests.
TRIALS = 16 * 20
ROUNDS = 3


def _campaign(*extra):
    """``repro campaign`` in process: (report text, ring records it
    added).  A live run's report is its final frame's, rendered as
    the plain run prints it."""
    out = io.StringIO()
    before = flightrec.recorder().captured
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(CAMPAIGN + list(extra)) == 0
    captured = flightrec.recorder().captured - before
    text = out.getvalue()
    if "--live" in extra:
        final = json.loads(text.strip().splitlines()[-1])
        text = json.dumps(final["report"], sort_keys=True, indent=2,
                          default=str) + "\n"
    return text, captured


def _time_disabled_checks(n):
    start = time.perf_counter()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    return time.perf_counter() - start


def _net_disabled_allocation(n):
    observe.current()  # warm the lookup machinery first
    tracemalloc.start()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    net, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return net


def _cpu_seconds(*extra):
    """Best-of-rounds CPU seconds of one serial campaign."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.process_time()
        _campaign("--workers", "1", *extra)
        best = min(best, time.process_time() - start)
    return best


def _experiment():
    # -- disabled phase, baseline: before any live run --
    disabled_before = _time_disabled_checks(N_SITES) / N_SITES * 1e9

    # -- identity phase: each live run against its plain twin --
    runs = {}
    for workers in ("1", "2"):
        runs[workers] = (_campaign("--workers", workers),
                         _campaign("--workers", workers, *LIVE))

    # -- disabled phase, after the live runs --
    disabled_after = _time_disabled_checks(N_SITES) / N_SITES * 1e9
    net = _net_disabled_allocation(2_000)
    drift = disabled_after / disabled_before if disabled_before else 1.0

    # -- serial live vs plain CPU (recorded, not gated) --
    plain_seconds = _cpu_seconds()
    live_seconds = _cpu_seconds(*LIVE)

    facts = [
        ("--workers 1 live final report byte-identical to plain run",
         runs["1"][0][0] == runs["1"][1][0]),
        ("--workers 2 live final report byte-identical to plain run",
         runs["2"][0][0] == runs["2"][1][0]),
        ("each live run's flight ring captures what its plain twin's does",
         all(plain[1] == live[1] > 0 for plain, live in runs.values())),
        ("disabled path within pinned budget after the live runs",
         disabled_after < DISABLED_BUDGET_NS),
        (f"disabled path drift <= {DRIFT_RATIO:.0f}x baseline",
         disabled_after <= disabled_before * DRIFT_RATIO),
        ("disabled path allocation-free after the live runs",
         net < ALLOCATION_BUDGET),
    ]
    table = render_table(
        ("fact", "holds"),
        [(fact, str(bool(ok))) for fact, ok in facts],
        title="H5: a live campaign reads the session it runs in")
    section = {
        "site_iterations": N_SITES,
        "campaign_trials": TRIALS,
        "disabled_before_ns_per_site": disabled_before,
        "disabled_after_ns_per_site": disabled_after,
        "disabled_budget_ns_per_site": DISABLED_BUDGET_NS,
        "disabled_drift_ratio": drift,
        "disabled_drift_budget_ratio": DRIFT_RATIO,
        "plain_us_per_trial": plain_seconds / TRIALS * 1e6,
        "live_us_per_trial": live_seconds / TRIALS * 1e6,
        "live_overhead_ns_per_trial":
            (live_seconds - plain_seconds) / TRIALS * 1e9,
    }
    return facts, section, table


def test_stream_overhead_identity_and_disabled_budget(benchmark):
    facts, section, table = benchmark(_experiment)
    save_result("H5_stream_overhead", table)
    update_harness_json(BENCH_HARNESS_JSON, "live", section)
    print(" ".join(
        f"{key}={value:.1f}" for key, value in sorted(section.items())))

    for fact, ok in facts:
        assert ok, fact

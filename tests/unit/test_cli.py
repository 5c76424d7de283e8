"""Unit tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import COMMANDS, EXPERIMENT_INDEX, build_parser, main

#: Command lines whose count or duration option is out of range, and
#: that option.
OUT_OF_RANGE = [
    (["campaign", "--requests", "0"], "--requests"),
    (["campaign", "--workers", "0", "--format", "json"], "--workers"),
    (["campaign", "--batch", "0"], "--batch"),
    (["campaign", "--shards", "0", "--format", "json"], "--shards"),
    (["campaign", "--shards", "2", "--max-shards", "0"], "--max-shards"),
    (["campaign", "--window", "0", "--format", "json"], "--window"),
    (["top", "--requests", "-1"], "--requests"),
    (["top", "--workers", "0"], "--workers"),
    (["top", "--window", "0"], "--window"),
    (["report", "nvp", "--window", "0"], "--window"),
    (["report", "nvp", "--requests", "-3"], "--requests"),
    (["report", "all", "--workers", "0", "--format", "json"], "--workers"),
    (["trace", "nvp", "--requests", "0"], "--requests"),
    (["metrics", "nvp", "--requests", "0"], "--requests"),
    (["demo", "--versions", "0"], "--versions"),
    (["bench", "--workers", "0", "--only", "h1"], "--workers"),
    (["bench", "--timeout", "0", "--only", "h1"], "--timeout"),
]
#: The options of :data:`OUT_OF_RANGE` that take any positive number.
DURATIONS = {"--timeout"}


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_commands_lists_every_subcommand_in_help_order(self):
        [sub] = [action for action in build_parser()._actions
                 if action.dest == "command"]
        assert tuple(sub.choices) == COMMANDS
        with pytest.raises(ValueError):
            build_parser("frobnicate")


class TestOneCommandParser:
    """``main`` builds only the parser of the command it runs.  Every
    command line must still give the output, exit code and namespace
    the parser of every command gives."""

    VALID = [
        ["tables"], ["techniques"], ["experiments"],
        ["recommend", "heisenbug", "--budget", "low", "--top", "2",
         "--no-adjudicator"],
        ["campaign"],
        ["campaign", "--format", "json", "--requests", "120",
         "--workers", "2", "--seed", "3", "--batch", "4"],
        ["campaign", "--shards", "8", "--store", "ck.jsonl", "--resume",
         "--max-shards", "4", "--gate", "--gate-baseline", "b.json",
         "--gate-bench", "h.json", "--gate-tolerance", "0.1"],
        ["campaign", "--live", "--interval", "0.2", "--frames", "2",
         "--window", "16", "--flight-out", "f.jsonl"],
        ["top"], ["top", "--workers", "3", "--format", "json"],
        ["bench", "--quick", "--workers", "2", "--only", "h4",
         "--only", "c1", "--incremental", "--json", "b.json"],
        ["lint", "src", "tests", "--deep", "--format", "json",
         "--fail-on", "warning", "--select", "DET001",
         "--deep-cache", "c.jsonl"],
        ["certify", "mod.py:fn", "--json", "--out", "c.json"],
        ["demo", "--versions", "3", "--failure-rate", "0.2"],
        ["trace", "nvp", "--limit", "5", "--jsonl", "t.jsonl"],
        ["metrics", "c3", "--format", "openmetrics", "--seed", "1"],
        ["report", "all", "--workers", "2", "--trace-out", "t.json"],
    ]
    EXITING = [
        [], ["--help"], ["-h"], ["--version"], ["frobnicate"],
        ["--help", "campaign"], ["--bogus", "campaign"],
        # Missing required positionals.
        ["recommend"], ["lint"], ["certify"], ["trace"], ["metrics"],
        ["report"],
        # Errors raised by the subcommand's parser and by the top one.
        ["recommend", "gremlins"], ["campaign", "--backend", "nope"],
        ["campaign", "--requests", "many"], ["campaign", "--bogus"],
        ["campaign", "stray"], ["trace", "nvp", "extra"],
        # An option that no longer exists errors alike in both.
        ["report", "all", "--workers", "2", "--backend", "thread",
         "--trace-out", "t.json"],
        *([command, "--help"] for command in COMMANDS),
        *(argv for argv, _ in OUT_OF_RANGE),
    ]

    @pytest.fixture
    def stub(self, monkeypatch):
        """Every command's entry point replaced by a stub that keeps
        the namespace it receives, and every parser that ``main``
        builds recorded with the command it was built for."""
        import repro.runtime.bench

        calls = {"args": [], "built": []}

        def entry(args):
            calls["args"].append(args)
            return 0

        for name in dir(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, entry)
        monkeypatch.setattr(repro.runtime.bench, "cmd_bench", entry)
        full = cli.build_parser

        def build(command=None):
            calls["built"].append(command)
            return full(command)

        monkeypatch.setattr(cli, "build_parser", build)
        monkeypatch.setenv("COLUMNS", "80")
        calls["full"] = full
        return calls

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            namespace, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            namespace, code = None, exc.code
        captured = capsys.readouterr()
        return namespace, code, captured.out, captured.err

    @pytest.mark.parametrize("argv", VALID + EXITING, ids=" ".join)
    def test_same_as_the_full_parser(self, argv, stub, capsys):
        full = self._outcome(lambda a: stub["full"]().parse_args(a),
                             argv, capsys)

        def via_main(a):
            assert main(a) == 0
            return stub["args"][-1]

        ours = self._outcome(via_main, argv, capsys)
        assert ours == full
        named = argv[0] if argv and argv[0] in COMMANDS else None
        assert stub["built"] == [named]
        if argv in self.VALID:
            assert full[0] is not None and named is not None


class TestCountArguments:
    """A count option below 1, or a duration of 0 or less, is a usage
    error that names the option, not a traceback, and never a run on a
    value it silently replaced."""

    @pytest.mark.parametrize("argv,flag", OUT_OF_RANGE,
                             ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
    def test_out_of_range_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        noun = "number" if flag in DURATIONS else "integer"
        assert f"argument {flag}: must be a positive {noun}" in err


class TestTables:
    def test_renders_both_tables_and_verdict(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "matches the paper's Table 2 exactly" in out


class TestTechniques:
    def test_lists_all_seventeen(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        assert "N-version programming" in out
        assert "Reboot and micro-reboot" in out
        assert out.count("intention:") == 17


class TestExperiments:
    def test_lists_all_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid, _, bench in EXPERIMENT_INDEX:
            assert bench in out
        assert len(EXPERIMENT_INDEX) == 31

    def test_index_ids_are_unique(self):
        ids = [eid for eid, _, _ in EXPERIMENT_INDEX]
        assert len(set(ids)) == len(ids)


class TestRecommend:
    def test_heisenbug_low_budget(self, capsys):
        assert main(["recommend", "heisenbug", "--budget", "low"]) == 0
        out = capsys.readouterr().out
        assert "1." in out
        # Opportunistic environment techniques lead under a low budget.
        first_line = [l for l in out.splitlines() if l.startswith("1.")][0]
        assert "opportunistic" in first_line

    def test_malicious(self, capsys):
        assert main(["recommend", "malicious"]) == 0
        out = capsys.readouterr().out
        assert "Process replicas" in out

    def test_invalid_fault_rejected(self):
        with pytest.raises(SystemExit):
            main(["recommend", "gremlins"])

    def test_top_limits_output(self, capsys):
        main(["recommend", "development", "--top", "2"])
        out = capsys.readouterr().out
        assert "3." not in out


class TestLintCommand:
    def test_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lint", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--format", "--fail-on", "--baseline",
                     "--write-baseline", "--select",
                     "--diversity-threshold"):
            assert flag in out

    def test_requires_paths(self):
        with pytest.raises(SystemExit):
            main(["lint"])


class TestDemo:
    def test_demo_reports_reliability(self, capsys):
        assert main(["demo", "--versions", "3",
                     "--failure-rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "3-version programming" in out
        assert "voted system reliability" in out

    def test_demo_is_seeded(self, capsys):
        main(["demo", "--seed", "42"])
        first = capsys.readouterr().out
        main(["demo", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second


class TestCampaignCommand:
    def test_matrix_rendered(self, capsys):
        assert main(["campaign", "--requests", "30"]) == 0
        out = capsys.readouterr().out
        assert "N-version (3)" in out
        assert "unprotected" in out
        assert "Bohrbug" in out

    def test_deterministic_given_seed(self, capsys):
        main(["campaign", "--requests", "30", "--seed", "5"])
        first = capsys.readouterr().out
        main(["campaign", "--requests", "30", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_workers_match_serial(self, capsys):
        main(["campaign", "--requests", "30", "--seed", "5"])
        serial = capsys.readouterr().out
        main(["campaign", "--requests", "30", "--seed", "5",
              "--workers", "3"])
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("command", [["campaign"], ["top"],
                                         ["report", "all"], ["bench"]],
                             ids=" ".join)
    def test_process_backend_is_not_offered(self, command, capsys):
        # No backend is: ``--workers N`` runs on worker processes when
        # the work pickles (TestPooledCampaignBackends), serially
        # otherwise, and no option names a backend.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--backend", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend process" \
            in capsys.readouterr().err

    def test_campaign_json_format(self, capsys):
        import json

        assert main(["campaign", "--requests", "20", "--seed", "5",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-campaign-report/v1"
        assert doc["sli"]["schema"] == "repro-sli-report/v2"
        assert {"protector", "fault", "survival_rate"} <= \
            doc["cells"][0].keys()


class TestPooledCampaignBackends:
    """The demo matrix's factories are module-level, so ``--workers N``
    runs on worker processes.  The cells are byte-identical to serial
    at any worker count.  At ``--requests 20 --seed 7`` the pooled SLI
    ``window_span``/``throughput`` rows differ from serial, so whole
    pooled reports are pinned on their own
    (``tests/integration/test_output_pins.py``)."""

    SMALL = ["--requests", "20", "--seed", "7"]

    @staticmethod
    def _json(capsys, argv):
        assert main(["campaign", "--format", "json", *argv]) == 0
        return capsys.readouterr().out

    def test_auto_runs_the_demo_matrix_on_processes(self):
        from repro.harness.shard import ShardedCampaign

        args = build_parser().parse_args(
            ["campaign", "--requests", "4", "--workers", "2"])
        campaign, _ = cli._build_campaign(args)
        campaign.run()
        assert campaign.pool_stats.backend == "process"
        assert campaign.pool_stats.serial_retries == 0
        ShardedCampaign(campaign, shards=4).run()
        assert campaign.pool_stats.backend == "process"
        assert campaign.pool_stats.serial_retries == 0

    @pytest.mark.parametrize("argv", [
        SMALL,
        ["--requests", "120", "--seed", "5"],
        ["--requests", "120", "--seed", "5", "--shards", "4"],
    ], ids=["small", "plain", "sharded"])
    def test_pooled_cells_equal_serial_cells(self, argv, capsys):
        import json

        process = self._json(capsys, [*argv, "--workers", "2"])
        serial = self._json(capsys, [*argv, "--workers", "1"])
        assert json.loads(process)["cells"] == json.loads(serial)["cells"]

    def test_process_report_is_hashseed_stable(self, capsys):
        import os
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        here = self._json(capsys, [*self.SMALL, "--workers", "2"])
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "campaign", "--format",
                 "json", *self.SMALL, "--workers", "2"],
                capture_output=True, text=True, env=env, check=True,
                timeout=120)
            assert proc.stdout == here


class TestShardedCampaignCLI:
    def _json_run(self, capsys, extra):
        code = main(["campaign", "--requests", "20", "--seed", "5",
                     "--format", "json"] + extra)
        return code, capsys.readouterr()

    def test_interrupt_then_resume_matches_cold(self, tmp_path, capsys):
        store = str(tmp_path / "ck.jsonl")
        code, interrupted = self._json_run(
            capsys, ["--shards", "4", "--store", store,
                     "--max-shards", "2"])
        assert code == 0
        assert "shards:" in interrupted.err
        # A truncated run has no complete grid, so no report.
        assert interrupted.out.strip() == ""
        code, resumed = self._json_run(
            capsys, ["--shards", "4", "--store", store, "--resume"])
        assert code == 0
        assert "served=2" in resumed.err
        code, cold = self._json_run(capsys, ["--shards", "4"])
        assert code == 0
        assert resumed.out == cold.out

    def test_resume_requires_a_store(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--requests", "20", "--shards", "2",
                  "--resume"])

    def test_gate_attaches_verdict_and_accepts(self, capsys):
        import json

        code, run = self._json_run(capsys, ["--gate"])
        assert code == 0
        verdict = json.loads(run.out)["verdict"]
        assert verdict["schema"] == "repro-campaign-verdict/v1"
        assert verdict["is_accepted"] is True
        assert "tests" in verdict["gates_passed"]

    def test_gate_renders_verdict_in_text(self, capsys):
        assert main(["campaign", "--requests", "20", "--seed", "5",
                     "--gate"]) == 0
        out = capsys.readouterr().out
        assert "campaign verdict" in out
        assert "ACCEPTED" in out

    def test_gate_rejects_on_baseline_drift(self, tmp_path, capsys):
        import json

        _, run = self._json_run(capsys, [])
        baseline = json.loads(run.out)
        baseline["sli"]["techniques"][0]["outcomes_seen"] += 7
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        code, rejected = self._json_run(
            capsys, ["--gate", "--gate-baseline", str(path)])
        assert code == 3
        verdict = json.loads(rejected.out)["verdict"]
        assert "telemetry-drift" in verdict["gates_failed"]


class TestLiveDashboardCommands:
    LIVE = ["--interval", "0.05", "--frames", "2", "--format", "json"]
    SHARDED = ["--requests", "10", "--seed", "3", "--workers", "2",
               "--shards", "4"]

    @staticmethod
    def _report_text(frame):
        import json

        return json.dumps(frame["report"], sort_keys=True, indent=2,
                          default=str) + "\n"

    def _frames(self, out):
        import json

        from repro.observe.stream import validate_frame

        frames = [json.loads(line) for line in out.strip().splitlines()]
        for frame in frames:
            validate_frame(frame)
        return frames

    @staticmethod
    def _assert_reaches_the_dashboard(final):
        """Every cell, served or executed, reached the dashboard, whose
        SLI rows are the report's."""
        assert final["cells"]["done"] == 16
        for section in ("techniques", "stores"):
            assert final["sli"][section] == final["report"]["sli"][section]

    def test_top_emits_valid_frames_floor(self, capsys):
        assert main(["top", "--requests", "8", "--seed", "3",
                     "--workers", "2", *self.LIVE]) == 0
        frames = self._frames(capsys.readouterr().out)
        # --frames is a floor, not a cap.
        assert len(frames) >= 2
        assert [f["seq"] for f in frames] == list(range(len(frames)))
        assert all(not f["final"] for f in frames[:-1])
        final = frames[-1]
        assert final["final"] is True
        assert final["cells"]["done"] == final["cells"]["total"]
        assert final["report"]["schema"] == "repro-campaign-report/v1"

    def test_live_final_report_matches_plain_campaign_json(self, capsys):
        base = ["--requests", "10", "--seed", "3", "--workers", "2"]
        assert main(["campaign", *base, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(["campaign", *base, "--live", *self.LIVE]) == 0
        final = self._frames(capsys.readouterr().out)[-1]
        # The live run's canonical report is byte-identical to the
        # plain run's output.
        assert self._report_text(final) == plain

    def test_live_sharded_final_report_matches_plain(self, capsys):
        assert main(["campaign", *self.SHARDED, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(["campaign", *self.SHARDED, "--live", *self.LIVE]) == 0
        final = self._frames(capsys.readouterr().out)[-1]
        assert self._report_text(final) == plain
        self._assert_reaches_the_dashboard(final)

    def test_live_resume_matches_plain(self, tmp_path, capsys):
        store = str(tmp_path / "checkpoints.jsonl")
        assert main(["campaign", *self.SHARDED, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(["campaign", *self.SHARDED, "--format", "json",
                     "--store", store, "--max-shards", "2"]) == 0
        capsys.readouterr()
        assert main(["campaign", *self.SHARDED, "--store", store,
                     "--resume", "--live", *self.LIVE]) == 0
        captured = capsys.readouterr()
        assert "served=2 executed=2" in captured.err
        final = self._frames(captured.out)[-1]
        assert self._report_text(final) == plain
        # Served and executed shards alike reach the dashboard.
        self._assert_reaches_the_dashboard(final)

    def test_flight_out_writes_validating_jsonl(self, tmp_path, capsys):
        from repro.observe.export.jsonl import validate_event_log

        path = tmp_path / "flight.jsonl"
        assert main(["top", "--requests", "8", "--seed", "3",
                     "--workers", "2", *self.LIVE,
                     "--flight-out", str(path)]) == 0
        header = validate_event_log(path.read_text())
        assert header["source"] == "flight-recorder"

    @pytest.mark.parametrize("extra", [
        ["--format", "json"], ["--format", "text"],
        ["--format", "text", "--store", "cells.jsonl"],
        ["--format", "json", "--shards", "4", "--max-shards", "2",
         "--store", "ck.jsonl"]],
        ids=["json", "text", "text-store", "truncated"])
    def test_flight_out_without_live(self, tmp_path, capsys, monkeypatch,
                                     extra):
        import os

        from repro.observe import flightrec
        from repro.observe.export.jsonl import validate_event_log

        monkeypatch.chdir(tmp_path)
        argv = ["campaign", "--requests", "10", "--seed", "3", *extra]
        assert main(argv) == 0
        without = capsys.readouterr().out
        for log in tmp_path.glob("*.jsonl"):
            log.unlink()
        recorder = flightrec.FlightRecorder()
        monkeypatch.setattr(flightrec, "_recorder", recorder)
        monkeypatch.setattr(flightrec, "_recorder_pid", os.getpid())
        path = tmp_path / "flight.jsonl"
        assert main([*argv, "--flight-out", str(path)]) == 0
        # The flag adds a window and changes no byte of what is printed.
        assert capsys.readouterr().out == without
        header = validate_event_log(path.read_text())
        assert header["source"] == "flight-recorder"
        assert header["flightrec"]["context"] == {"command": "campaign",
                                                  "failure_dumps": 0}
        # The dump is the window this process recorded, and every
        # format records one.
        assert header["flightrec"]["captured"] == recorder.captured
        assert header["events"] == len(recorder.window()) > 0

    def test_truncated_live_run_reports_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "ck.jsonl")
        assert main(["campaign", *self.SHARDED, "--store", store,
                     "--max-shards", "2", "--live", "--gate",
                     *self.LIVE]) == 0
        captured = capsys.readouterr()
        assert "resume with --resume" in captured.err
        final = self._frames(captured.out)[-1]
        # As the plain path: a truncated run has no complete grid, so
        # neither a report nor a verdict.
        assert final["final"] is True
        assert final["report"] is None

    def test_top_leaves_no_session_installed(self, capsys):
        from repro import observe

        main(["top", "--requests", "4", "--seed", "3", *self.LIVE])
        assert observe.current().enabled is False


class TestTraceCommand:
    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "nvp", "--requests", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "scenario nvp" in out
        assert "pattern.execute" in out
        assert "unit.run" in out
        assert "adjudicate" in out

    def test_trace_limit_elides(self, capsys):
        main(["trace", "nvp", "--requests", "10", "--limit", "5"])
        assert "more spans" in capsys.readouterr().out

    def test_trace_exports_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        main(["trace", "recovery-blocks", "--requests", "4",
              "--jsonl", str(path)])
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert rows and {"name", "span_id", "attrs"} <= rows[0].keys()

    def test_trace_is_seeded(self, capsys):
        main(["trace", "microreboot", "--requests", "20", "--seed", "9"])
        first = capsys.readouterr().out
        main(["trace", "microreboot", "--requests", "20", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "nope"])

    def test_trace_leaves_no_session_installed(self):
        from repro import observe

        main(["trace", "nvp", "--requests", "2"])
        assert observe.current().enabled is False


class TestMetricsCommand:
    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics", "nvp", "--requests", "6"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pattern_executions_total counter" in out
        assert 'repro_pattern_executions_total{pattern="nvp"} 18' in out

    def test_metrics_cover_recovery_counters(self, capsys):
        main(["metrics", "microreboot", "--requests", "40", "--seed", "2"])
        out = capsys.readouterr().out
        assert "repro_reboots_total" in out
        assert "repro_reboot_downtime_bucket" in out

    def test_metrics_json_format(self, capsys):
        import json

        assert main(["metrics", "nvp", "--requests", "6",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data['repro_pattern_executions_total{pattern="nvp"}'] == 18

    def test_metrics_openmetrics_format(self, capsys):
        assert main(["metrics", "microreboot", "--requests", "40",
                     "--seed", "2", "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert "# TYPE repro_reboots counter" in out
        assert 'quantile="0.95"' in out


class TestTraceOutExport:
    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.observe.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["trace", "nvp", "--requests", "4",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        assert doc["traceEvents"]
        assert "Chrome trace written" in capsys.readouterr().out

    def test_trace_out_unwritable_path_fails(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "trace.json"
        assert main(["trace", "nvp", "--requests", "2",
                     "--out", str(missing)]) == 1
        assert "error" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders_sli_table(self, capsys):
        assert main(["report", "microreboot", "--requests", "40",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-technique SLIs" in out
        assert "avail" in out and "rec p50" in out
        assert "micro" in out

    def test_report_availability_and_percentiles_from_campaign(self,
                                                               capsys):
        assert main(["report", "all", "--requests", "30",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        # availability from unit outcomes...
        assert "nvp" in out
        # ...and recovery latency percentiles from recovery events.
        assert "micro" in out

    def test_report_json_format(self, capsys):
        import json

        assert main(["report", "nvp", "--requests", "10",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sli"]["schema"] == "repro-sli-report/v2"
        rows = {row["technique"]: row for row in doc["sli"]["techniques"]}
        assert rows["nvp"]["availability"] is not None
        assert rows["nvp"]["throughput"] is not None
        # JSON documents carry no wall clock: the bytes are a pure
        # function of (scenario, requests, seed) at any worker count.
        assert doc["sli"]["trials_per_sec"] is None
        assert doc["sli"]["wall_span"] is None
        assert doc["scenarios"][0]["scenario"] == "nvp"

    def test_report_window_flag(self, capsys):
        assert main(["report", "nvp", "--requests", "10",
                     "--window", "4"]) == 0
        assert "window=4" in capsys.readouterr().out

    def test_report_exports_artifacts(self, tmp_path, capsys):
        import json

        from repro.observe.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.om.txt"
        assert main(["report", "checkpoint", "--requests", "10",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert metrics_path.read_text().rstrip().endswith("# EOF")

    def test_report_workers_match_serial(self, capsys):
        assert main(["report", "all", "--requests", "20", "--seed", "5",
                     "--format", "json"]) == 0
        serial = capsys.readouterr().out
        assert main(["report", "all", "--requests", "20", "--seed", "5",
                     "--format", "json", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_report_leaves_no_session_installed(self):
        from repro import observe

        main(["report", "nvp", "--requests", "2"])
        assert observe.current().enabled is False

"""Unit tests for the ``repro bench`` runner."""

import json
import sys

import pytest

from repro.cli import main as cli_main
from repro.runtime import bench as bench_mod


class TestDiscovery:
    def test_finds_the_suite(self):
        suite = bench_mod.default_benchmarks_dir()
        paths = bench_mod.discover(suite)
        names = {p.stem for p in paths}
        assert "bench_table1_taxonomy" in names
        assert len(paths) >= 26
        assert paths == sorted(paths)

    def test_quick_subset_exists(self):
        suite = bench_mod.default_benchmarks_dir()
        names = {p.stem for p in bench_mod.discover(suite)}
        assert set(bench_mod.QUICK_BENCHMARKS) <= names


class TestBenchLoader:
    def test_a_bench_files_own_tasks_map_on_processes(
            self, tmp_path, monkeypatch):
        # The file is entered in sys.modules before it runs, so its own
        # functions pickle by reference and its maps reach the pool.
        stem = "bench_loader_probe"
        monkeypatch.delitem(sys.modules, stem, raising=False)
        path = tmp_path / f"{stem}.py"
        path.write_text(
            "from repro.runtime.pmap import ParallelMap\n"
            "\n"
            "\n"
            "def _square(x):\n"
            "    return x * x\n"
            "\n"
            "\n"
            "def test_maps_on_processes(benchmark):\n"
            "    pool = ParallelMap(workers=2)\n"
            "    assert pool.map(_square, range(8)) == "
            "[x * x for x in range(8)]\n"
            "    print('backend', pool.stats.backend)\n"
            "    assert pool.stats.backend == 'process'\n",
            encoding="utf-8")
        outcome = bench_mod.run_bench_file(str(path))
        assert outcome["ok"], outcome["error"]
        assert outcome["output"] == "backend process\n"


class TestWorkerIdentity:
    def test_workers_1_vs_4_same_tables_and_no_drift(self):
        suite = bench_mod.default_benchmarks_dir()
        only = ["table1", "table2"]
        serial = bench_mod.run_suite(suite, workers=1, only=only)
        pooled = bench_mod.run_suite(suite, workers=4, only=only)
        assert serial["failures"] == [] and pooled["failures"] == []
        assert serial["results_drift"] == []
        assert pooled["results_drift"] == []
        # The rendered artifacts (each benchmark's captured stdout,
        # i.e. its tables) are byte-identical across worker counts.
        assert pooled["outputs"] == serial["outputs"]


class TestDriftDetection:
    def _fake_suite(self, tmp_path, stored):
        (tmp_path / "_common.py").write_text(
            "import pathlib\n"
            "RESULTS_DIR = pathlib.Path(__file__).parent / 'results'\n"
            "def save_result(experiment_id, text):\n"
            "    RESULTS_DIR.mkdir(exist_ok=True)\n"
            "    (RESULTS_DIR / f'{experiment_id}.txt')"
            ".write_text(text + '\\n', encoding='utf-8')\n"
            "    print(text)\n", encoding="utf-8")
        (tmp_path / "bench_fake.py").write_text(
            "from _common import save_result\n"
            "def _experiment():\n"
            "    return 'regenerated table'\n"
            "def test_fake(benchmark):\n"
            "    save_result('FAKE', benchmark(_experiment))\n",
            encoding="utf-8")
        results = tmp_path / "results"
        results.mkdir()
        (results / "FAKE.txt").write_text(stored, encoding="utf-8")

    def test_changed_table_is_reported_as_drift(self, tmp_path):
        self._fake_suite(tmp_path, stored="stale table\n")
        report = bench_mod.run_suite(tmp_path, workers=1)
        assert report["failures"] == []
        assert report["results_drift"] == ["FAKE.txt"]

    def test_matching_table_is_clean(self, tmp_path):
        self._fake_suite(tmp_path, stored="regenerated table\n")
        report = bench_mod.run_suite(tmp_path, workers=1)
        assert report["results_drift"] == []

    def test_drift_fails_the_cli(self, tmp_path, capsys):
        self._fake_suite(tmp_path, stored="stale table\n")
        code = cli_main(["bench", "--benchmarks-dir", str(tmp_path),
                         "--workers", "1",
                         "--json", str(tmp_path / "BENCH.json")])
        assert code == 1
        assert "FAKE.txt" in capsys.readouterr().out


class TestIncrementalStore:
    def _fake_suite(self, tmp_path):
        TestDriftDetection._fake_suite(self, tmp_path,
                                       stored="regenerated table\n")

    def _store(self, tmp_path):
        from repro.runtime.store import ResultStore

        # A fresh instance per run, like consecutive CLI invocations.
        return ResultStore(tmp_path / "store.jsonl", name="bench-test")

    def test_second_run_is_served_from_the_store(self, tmp_path):
        self._fake_suite(tmp_path)
        cold_store = self._store(tmp_path)
        cold = bench_mod.run_suite(tmp_path, workers=1, store=cold_store)
        assert cold["incremental"] is True
        assert cold["benchmarks"][0]["cached"] is False
        assert cold["store"]["served"] == 0
        assert cold_store.stats()["writes"] == 1

        warm_store = self._store(tmp_path)
        warm = bench_mod.run_suite(tmp_path, workers=1, store=warm_store)
        assert warm["benchmarks"][0]["cached"] is True
        assert warm["store"]["served"] == 1
        assert warm_store.stats()["writes"] == 0
        # A served file is not executed, so its table cannot drift, and
        # the stored outcome carries the original captured output.
        assert warm["results_drift"] == []
        assert warm["outputs"] == cold["outputs"]

    def test_editing_the_file_invalidates_its_outcome(self, tmp_path):
        self._fake_suite(tmp_path)
        bench_mod.run_suite(tmp_path, workers=1,
                            store=self._store(tmp_path))
        bench = tmp_path / "bench_fake.py"
        bench.write_text(bench.read_text(encoding="utf-8")
                         + "# edited\n", encoding="utf-8")
        store = self._store(tmp_path)
        report = bench_mod.run_suite(tmp_path, workers=1, store=store)
        assert report["benchmarks"][0]["cached"] is False
        assert store.stats()["writes"] == 1

    def test_failures_are_never_stored(self, tmp_path):
        (tmp_path / "bench_broken.py").write_text(
            "def test_broken(benchmark):\n"
            "    raise RuntimeError('injected')\n", encoding="utf-8")
        for _ in range(2):
            store = self._store(tmp_path)
            report = bench_mod.run_suite(tmp_path, workers=1,
                                         store=store)
            assert report["failures"] == ["bench_broken"]
            assert report["benchmarks"][0]["cached"] is False
            assert store.stats()["writes"] == 0

    def test_without_a_store_nothing_is_incremental(self, tmp_path):
        self._fake_suite(tmp_path)
        report = bench_mod.run_suite(tmp_path, workers=1)
        assert report["incremental"] is False
        assert report["store"] is None


class TestHarnessReport:
    def test_bench_json_is_well_formed(self, tmp_path, capsys):
        report_path = tmp_path / "BENCH_harness.json"
        code = cli_main(["bench", "--only", "table1", "--workers", "2",
                         "--json", str(report_path)])
        assert code == 0
        document = json.loads(report_path.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-bench-harness/v2"
        assert document["host"]["cpu_count"] >= 1
        suite = document["suite"]
        assert "schema" not in suite and "host" not in suite
        assert suite["workers"] == 2
        assert suite["failures"] == []
        assert suite["results_drift"] == []
        entries = {entry["name"] for entry in suite["benchmarks"]}
        assert entries == {"bench_table1_taxonomy"}
        for entry in suite["benchmarks"]:
            assert entry["ok"] and entry["seconds"] >= 0
        assert suite["serial_seconds"] >= 0
        assert suite["wall_seconds"] > 0
        out = capsys.readouterr().out
        assert "repro bench" in out and "wall time" in out

    def test_sections_survive_regeneration(self, tmp_path):
        # A foreign section (H6's shard_resume figures) written before
        # a suite run is still there afterwards — the sectioned RMW
        # never clobbers the whole file.
        report_path = tmp_path / "BENCH_harness.json"
        bench_mod.update_harness_json(report_path, "shard_resume",
                                      {"resume_ratio": 0.4})
        code = cli_main(["bench", "--only", "table1", "--workers", "1",
                         "--json", str(report_path)])
        assert code == 0
        document = json.loads(report_path.read_text(encoding="utf-8"))
        assert document["shard_resume"] == {"resume_ratio": 0.4}
        assert document["suite"]["failures"] == []

    def test_v1_document_is_rejected(self, tmp_path):
        # A flat v1 report left by an older runner fails loudly, naming
        # its schema, and stays on disk as it was: it is never upgraded.
        report_path = tmp_path / "BENCH_harness.json"
        legacy = {"schema": "repro-bench-harness/v1",
                  "host": {"cpu_count": 4},
                  "workers": 3, "failures": [], "benchmarks": []}
        text = json.dumps(legacy)
        report_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="'repro-bench-harness/v1'"):
            bench_mod.update_harness_json(
                report_path, "shard_resume", {"resume_ratio": 0.4})
        assert report_path.read_text(encoding="utf-8") == text

    def test_corrupt_document_is_replaced(self, tmp_path):
        report_path = tmp_path / "BENCH_harness.json"
        report_path.write_text("{not json", encoding="utf-8")
        document = bench_mod.update_harness_json(report_path, "suite",
                                                 {"failures": []})
        assert document["schema"] == "repro-bench-harness/v2"
        assert document["suite"] == {"failures": []}

    def test_timeout_falls_back_to_parent_run(self, tmp_path):
        # A bench that sleeps past the deadline forces the
        # retry-once-serial path; the run still completes with correct
        # tables and the pool records the timeout.  Two files put the
        # suite on the (prewarmed) process pool.
        (tmp_path / "bench_quick.py").write_text(
            "def test_quick(benchmark):\n"
            "    benchmark(abs, -1)\n", encoding="utf-8")
        (tmp_path / "bench_slow.py").write_text(
            "import time\n"
            "def test_slow(benchmark):\n"
            "    benchmark(time.sleep, 0.3)\n", encoding="utf-8")
        report = bench_mod.run_suite(tmp_path, workers=2, timeout=0.05)
        assert report["backend"] == "process"
        assert report["failures"] == []
        assert report["pool"]["timeouts"] == 1
        assert report["pool"]["serial_retries"] == 1

"""Integration: a SIGKILL'd sharded campaign resumes byte-identically.

The real failure mode the shard checkpoint store exists for is not a
polite ``--max-shards`` truncation but a process that dies mid-grid —
OOM kill, preempted spot instance, ctrl-C twice.  Here we run the real
CLI in a subprocess, SIGKILL it once the first shard checkpoints have
hit the log, resume with ``--resume``, and require the resumed report
to be byte-identical to an uninterrupted run of the same plan.

``PYTHONHASHSEED`` is varied across the kill, resume, and reference
runs so the identity cannot lean on accidental hash-order agreement.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

SHARDS = "8"
SEED = "5"
#: The killed run gets a deliberately heavy workload so there is a wide
#: window between the first checkpoint landing and the grid finishing.
KILL_REQUESTS = "2000"
KILL_DEADLINE = 120.0


def _command(requests, extra):
    return [sys.executable, "-m", "repro.cli", "campaign",
            "--requests", requests, "--seed", SEED,
            "--shards", SHARDS, "--format", "json"] + extra


def _run(requests, extra, hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    return subprocess.run(_command(requests, extra), env=env,
                          capture_output=True, text=True, timeout=300)


def _kill_group(proc):
    """SIGKILL the run's whole process group, so nothing it started
    outlives the kill."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)


def _kill_mid_grid(store, extra, hash_seed):
    """Start a checkpointing run and SIGKILL it once the log shows the
    first shard record.  Returns True if the kill landed mid-run, False
    if the run finished first (the callers fail on that: a resume of a
    finished grid only serves, so it would prove nothing)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    proc = subprocess.Popen(
        _command(KILL_REQUESTS, ["--store", str(store)] + extra),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + KILL_DEADLINE
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                return False
            if store.exists() and \
                    store.read_text(encoding="utf-8").count("\n") >= 2:
                _kill_group(proc)
                return proc.returncode == -signal.SIGKILL
            time.sleep(0.01)
        raise AssertionError("no checkpoint appeared before deadline")
    finally:
        if proc.poll() is None:
            _kill_group(proc)


def _shard_counts(stderr):
    """``{"served": n, "executed": m, ...}`` from the ``shards:`` line."""
    line = next(line for line in stderr.splitlines()
                if line.startswith("shards:"))
    return {key: int(value) for key, value in
            (token.split("=") for token in line.split()[1:]
             if "=" in token)}


@pytest.mark.parametrize("extra", [
    pytest.param([], id="serial"),
    # ``--workers 3`` runs the shards on worker processes, so the group kill
    # lands while worker processes hold shards.
    pytest.param(["--workers", "3"], id="process"),
])
def test_sigkilled_campaign_resumes_byte_identical(tmp_path, extra):
    store = tmp_path / "checkpoints.jsonl"
    killed = _kill_mid_grid(store, extra, hash_seed="11")
    assert killed, "the run finished before the kill; raise KILL_REQUESTS"
    assert store.exists() and store.stat().st_size > 0

    resumed = _run(KILL_REQUESTS,
                   ["--store", str(store), "--resume"] + extra,
                   hash_seed="23")
    assert resumed.returncode == 0, resumed.stderr
    assert "shards:" in resumed.stderr
    # The kill landed mid-grid, so the resume both served checkpoints
    # and executed the remainder.
    counts = _shard_counts(resumed.stderr)
    assert counts["served"] > 0, resumed.stderr
    assert counts["executed"] > 0, resumed.stderr
    assert counts["served"] + counts["executed"] == counts["total"]

    reference = _run(KILL_REQUESTS, extra, hash_seed="37")
    assert reference.returncode == 0, reference.stderr
    assert resumed.stdout == reference.stdout


def test_torn_final_record_is_skipped_not_fatal(tmp_path):
    """SIGKILL can tear the last append mid-line; the store's replay
    must skip it and the resume must re-execute that shard."""
    store = tmp_path / "checkpoints.jsonl"
    first = _run("40", ["--store", str(store), "--max-shards", "2"],
                 hash_seed="11")
    assert first.returncode == 0, first.stderr
    raw = store.read_bytes()
    store.write_bytes(raw + b'{"schema": "repro-resul')  # torn tail

    resumed = _run("40", ["--store", str(store), "--resume"],
                   hash_seed="23")
    assert resumed.returncode == 0, resumed.stderr
    reference = _run("40", [], hash_seed="37")
    assert resumed.stdout == reference.stdout

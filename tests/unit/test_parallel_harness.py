"""Serial-vs-parallel byte-identity for the experiment harness.

Every unit (trial, campaign cell) is a pure function of its seed, so a
worker pool of any size must reproduce the serial path exactly — same
metrics, same stdev, same rendered tables, byte for byte.
"""

import os
import pathlib
import subprocess
import sys

from repro.faults.development import Bohrbug, Heisenbug, InputRegion
from repro.harness.campaign import FaultCampaign, _cell_seed
from repro.harness.experiment import Experiment, run_trials, summarize


# -- module-level (picklable) building blocks for the process backend --


def seeded_trial(seed):
    """Pure, heterogeneous-keyed trial metrics."""
    import random

    rng = random.Random(seed)
    metrics = {"value": rng.random(), "work": float(seed % 3)}
    if seed % 2:
        metrics["rare"] = rng.random() * 10
    return metrics


def nvp_trial(seed):
    """A trial with real redundant executions (telemetry-rich)."""
    from repro.components.library import diverse_versions
    from repro.environment import SimEnvironment
    from repro.exceptions import NoMajorityError
    from repro.techniques.nvp import NVersionProgramming

    env = SimEnvironment(seed=seed)
    nvp = NVersionProgramming(
        diverse_versions(lambda x: x + 1, 3, 0.1, seed=seed))
    ok = 0
    for x in range(5):
        try:
            ok += nvp.execute(x, env=env) == x + 1
        except NoMajorityError:
            pass
    return {"ok": float(ok),
            "executions": float(nvp.stats.executions),
            "masked": float(nvp.stats.masked_failures)}


def retry_protector(faulty, env):
    def protected(x):
        last = None
        for _ in range(4):
            try:
                return faulty(x, env=env)
            except Exception as exc:
                last = exc
        raise last
    return protected


def make_bohrbug():
    return Bohrbug("b", region=InputRegion(0, 10 ** 9))


def make_heisenbug():
    return Heisenbug("h", probability=0.5)


CAMPAIGN_KWARGS = dict(
    protectors={"retry": retry_protector},
    faults={"bohrbug": make_bohrbug, "heisenbug": make_heisenbug},
    requests=60, seed=3)


class TestExperimentByteIdentity:
    def test_process_pool_matches_serial(self):
        seeds = tuple(range(12))
        serial = Experiment(name="e", trial=seeded_trial,
                            seeds=seeds).run()
        parallel = Experiment(name="e", trial=seeded_trial, seeds=seeds,
                              workers=4).run()
        assert repr(parallel) == repr(serial)
        assert repr(summarize(parallel)) == repr(summarize(serial))

    def test_closure_trials_run_serially_and_match(self):
        bias = 0.5
        trial = lambda seed: {"x": seed + bias}  # noqa: E731 - unpicklable
        seeds = tuple(range(8))
        serial = Experiment(name="e", trial=trial, seeds=seeds).run()
        experiment = Experiment(name="e", trial=trial, seeds=seeds,
                                workers=3)
        assert repr(experiment.run()) == repr(serial)
        assert experiment.pool_stats.backend == "serial"

    def test_instrumented_digests_match_serial(self):
        seeds = (0, 1, 2, 3)
        serial = Experiment(name="e", trial=nvp_trial, seeds=seeds,
                            instrument=True).run()
        parallel = Experiment(name="e", trial=nvp_trial, seeds=seeds,
                              instrument=True, workers=2).run()
        assert [r.metrics for r in parallel] == [r.metrics
                                                 for r in serial]
        assert [r.telemetry for r in parallel] == [r.telemetry
                                                   for r in serial]

    def test_run_trials_workers_knob(self):
        serial = run_trials(seeded_trial, seeds=range(10))
        parallel = run_trials(seeded_trial, seeds=range(10), workers=4)
        assert repr(parallel) == repr(serial)


class TestCampaignByteIdentity:
    def test_process_pool_matrix_and_table_match_serial(self):
        serial = FaultCampaign(**CAMPAIGN_KWARGS)
        parallel = FaultCampaign(**CAMPAIGN_KWARGS, workers=4)
        assert parallel.run() == serial.run()
        assert parallel.pool_stats.backend == "process"
        assert parallel.render() == serial.render()

    def test_closure_campaign_falls_back_and_matches(self):
        kwargs = dict(
            protectors={"retry": retry_protector},
            faults={"quiet": lambda: Heisenbug("q", probability=0.0)},
            requests=30, seed=1)
        serial = FaultCampaign(**kwargs)
        parallel = FaultCampaign(**kwargs, workers=2)
        assert parallel.render() == serial.render()
        assert parallel.pool_stats.backend == "serial"


class TestStableSeedDerivation:
    def test_cell_seed_is_crc_based_not_hash_based(self):
        # Known digest: the derivation must not move when PYTHONHASHSEED
        # does (builtin hash of strings would).
        import zlib

        expected = 3 + zlib.crc32(b"retry|bohrbug") % 10_000
        assert _cell_seed(3, "retry", "bohrbug") == expected

    def test_campaign_reproduces_across_interpreter_hash_seeds(self):
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        script = (
            "from repro.harness.campaign import _cell_seed\n"
            "print([_cell_seed(7, p, f) for p in ('a', 'b')"
            " for f in ('x', 'y')])\n")
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env=env, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1

"""Execution modes as versions: one identity property over the modes.

A campaign's cells are a pure function of its matrix, so every way of
running it must report the cells the plain one-worker run reports:
worker count, cells per pool chunk (``--batch``), a shard plan
(``--shards``), a shard plan interrupted after k shards and resumed
from its checkpoints, and a live dashboard (``--live``, whose final
frame embeds the report).  Each drawn mode runs ``repro campaign``
in process and is compared with ``--workers 1`` at the same
``--requests`` and ``--seed``; a failure shrinks to the smallest mode
that disagrees and names the section that diverged.

The budget is fixed and the draw derandomized, so every run checks
the same modes.  Whole-report identity across modes is not claimed
here: the SLI section's ``throughput`` and ``window_span`` count
clock ticks, which move with the chunking.  It is claimed between a
drawn ``--live`` mode and the same mode without ``--live`` (its plain
twin), because the dashboard only subscribes to the session the
report reads.  Running those twins costs about 0.4 s: the test takes
2.3 s against 1.9 s without them (median of three runs each on a
2-vCPU host).
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import tempfile
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main


@dataclasses.dataclass(frozen=True)
class Mode:
    """One way of running the demo campaign."""

    requests: int
    seed: int
    workers: int = 1
    batch: Optional[int] = None
    shards: Optional[int] = None
    #: Shards the interrupted first run completes before the resume.
    resume_after: Optional[int] = None
    live: bool = False

    def argv(self, store: Optional[str] = None) -> List[str]:
        argv = ["campaign", "--requests", str(self.requests),
                "--seed", str(self.seed), "--workers", str(self.workers),
                "--format", "json"]
        if self.batch is not None:
            argv += ["--batch", str(self.batch)]
        if self.shards is not None:
            argv += ["--shards", str(self.shards)]
        if store is not None:
            argv += ["--store", store]
        return argv


@st.composite
def modes(draw):
    shards = draw(st.none() | st.integers(1, 6))
    resume_after = None
    if shards is not None and shards > 1:
        resume_after = draw(st.none() | st.integers(1, shards - 1))
    return Mode(requests=draw(st.integers(5, 30)),
                seed=draw(st.integers(0, 20)),
                workers=draw(st.sampled_from((1, 2))),
                batch=draw(st.none() | st.integers(1, 6)),
                shards=shards, resume_after=resume_after,
                live=draw(st.booleans()))


def _campaign(argv: List[str]) -> str:
    """``repro campaign`` in process: its stdout, after a zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue()


def _report(mode: Mode) -> dict:
    """The report ``mode`` prints (a live run's final frame's)."""
    live = ["--live", "--interval", "0.05"] if mode.live else []
    if mode.resume_after is None:
        out = _campaign(mode.argv() + live)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "checkpoints.jsonl")
            _campaign(mode.argv(store)
                      + ["--max-shards", str(mode.resume_after)])
            out = _campaign(mode.argv(store) + ["--resume"] + live)
    if mode.live:
        return json.loads(out.strip().splitlines()[-1])["report"]
    return json.loads(out)


@functools.lru_cache(maxsize=None)
def _plain(requests: int, seed: int) -> dict:
    return _report(Mode(requests=requests, seed=seed))


@given(modes())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_every_mode_reports_the_plain_cells(mode):
    plain = _plain(mode.requests, mode.seed)
    got = _report(mode)
    assert got["cells"] == plain["cells"], \
        f"section 'cells' differs: {mode} against plain --workers 1"
    if mode.live:
        twin = _report(dataclasses.replace(mode, live=False))
        differs = sorted(key for key in got.keys() | twin.keys()
                         if got.get(key) != twin.get(key))
        assert not differs, \
            f"section(s) {differs} differ: {mode} against its plain twin"

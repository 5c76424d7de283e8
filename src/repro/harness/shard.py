"""Sharded, resumable campaign execution: checkpointed work units.

:meth:`FaultCampaign.run` fans the whole matrix out inside one process
tree and keeps every cell resident; a crash at cell 900/1000 throws the
lot away.  This module partitions the campaign's (protector, fault)
pair list into deterministic shards, runs each shard as **one** work
unit through :class:`~repro.runtime.pmap.ParallelMap`, and hands each
completed shard's cells plus its telemetry snapshot to the parent as
the shard lands — peak memory is O(shard), not O(grid), and
every completed shard is checkpointed into a
:class:`~repro.runtime.store.ResultStore` under a
``repro-campaign-shard/v1`` key so an interrupted campaign resumes from
the last finished shard.

Determinism contract (the serial-vs-parallel identity convention,
generalized to interrupted-vs-uninterrupted):

* the shard plan orders pairs by :func:`~repro._util.stable_int` —
  independent of ``PYTHONHASHSEED``, dict insertion order and worker
  count;
* every cell is a pure function of its labels and the base seed, so a
  checkpointed cell equals a re-measured one;
* the parent folds shard telemetry snapshots **in plan order**, whether
  a shard was executed now or served from the checkpoint store —
  interrupted + resumed and uninterrupted runs produce byte-identical
  ``repro-campaign-report/v1`` documents.

Checkpoint keys carry the *campaign fingerprint* (source versions of
the oracle and every factory, plus labels, requests and seed), the
shard index, the plan's shard count, the shard's own pair-list digest,
and how telemetry was captured (``False``: not at all, ``True``: a
full session, :data:`EVENTS_ONLY`: an events-only session) — editing
any factory, resizing the plan, or switching telemetry on or between
modes invalidates stale checkpoints instead of serving them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING, Union)

from repro._util import stable_int
from repro.harness.campaign import CampaignCell, FaultCampaign
from repro.observe import capture as _capture
from repro.observe import current as _telemetry
from repro.observe.stream import make_delta

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.store import ResultStore

#: Schema tag of one checkpointed shard record.
SHARD_SCHEMA = "repro-campaign-shard/v1"

#: Store task name shard checkpoints are addressed under.
SHARD_TASK = "repro.harness.campaign.shard"

#: The capture value of a shard measured under an events-only session.
#: Full-session capture stays ``True`` and no capture ``False``, so
#: their keys never move; this third value keys apart checkpoints whose
#: snapshots hold events only.
EVENTS_ONLY = "events"

#: How a shard's telemetry is captured: ``False``, ``True`` or
#: :data:`EVENTS_ONLY`.
Capture = Union[bool, str]


def campaign_fingerprint(campaign: FaultCampaign) -> str:
    """Identity of a campaign for checkpoint addressing.

    Covers the source versions of the oracle and every protector and
    fault factory (via :func:`~repro.runtime.store.code_fingerprint`),
    the label sets, the workload size and the base seed — everything a
    cell's value depends on.  Deliberately excludes ``workers`` and
    ``batch``: those change *how* the matrix is computed, never *what*
    it computes.
    """
    from repro.runtime.store import code_fingerprint

    protector_labels = tuple(campaign.protectors)
    fault_labels = tuple(campaign.faults)
    code = code_fingerprint(
        campaign.oracle,
        *(campaign.protectors[label] for label in protector_labels),
        *(campaign.faults[label] for label in fault_labels),
        memo=campaign._sources)
    raw = repr((code, protector_labels, fault_labels,
                campaign.requests, campaign.seed))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def pairs_digest(pairs: Sequence[Tuple[str, str]]) -> str:
    """Stable digest of one shard's pair list (part of its key)."""
    return f"{stable_int(tuple(pairs), modulo=2 ** 62):016x}"


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the campaign's pair list.

    Pairs are ordered by ``stable_int`` (ties broken by the pair
    itself), then cut into ``len(shards)`` contiguous slices.  The
    ragged remainder is **front-loaded**: the first ``N % S`` shards
    carry one extra pair, so "the first half of the shards" always
    carries at least half of the cells — the property the resume-speed
    claim (H6) rests on.
    """

    #: Every pair, in shard order (the concatenation of ``shards``).
    ordered: Tuple[Tuple[str, str], ...]
    #: The slices, one tuple of pairs per shard.
    shards: Tuple[Tuple[Tuple[str, str], ...], ...]

    @classmethod
    def build(cls, pairs: Sequence[Tuple[str, str]],
              shards: int) -> "ShardPlan":
        """Partition ``pairs`` into ``shards`` slices (clamped to
        ``[1, len(pairs)]`` — never an empty shard)."""
        if not pairs:
            raise ValueError("cannot shard an empty pair list")
        if shards <= 0:
            raise ValueError("shards must be positive")
        ordered = tuple(sorted(pairs,
                               key=lambda pair: (stable_int(pair), pair)))
        count = min(shards, len(ordered))
        base, extra = divmod(len(ordered), count)
        slices: List[Tuple[Tuple[str, str], ...]] = []
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            slices.append(ordered[start:start + size])
            start += size
        return cls(ordered=ordered, shards=tuple(slices))

    @classmethod
    def for_campaign(cls, campaign: FaultCampaign,
                     shards: int) -> "ShardPlan":
        """The plan over ``campaign.pairs()``."""
        return cls.build(campaign.pairs(), shards)

    def __len__(self) -> int:
        return len(self.shards)


@dataclasses.dataclass
class ShardStats:
    """Bookkeeping of one sharded run (JSON-friendly via ``asdict``)."""

    shards_total: int = 0
    #: Replayed from the checkpoint store without executing.
    shards_served: int = 0
    shards_executed: int = 0
    shards_checkpointed: int = 0
    cells_served: int = 0
    cells_executed: int = 0
    #: Telemetry snapshots folded into the parent session.
    deltas_folded: int = 0
    #: ``max_shards`` stopped the run before the plan completed.
    truncated: bool = False

    def summary(self) -> str:
        """One-line summary (the CLI's stderr progress note)."""
        return (f"shards: total={self.shards_total} "
                f"served={self.shards_served} "
                f"executed={self.shards_executed} "
                f"checkpointed={self.shards_checkpointed} "
                f"cells_served={self.cells_served} "
                f"cells_executed={self.cells_executed}"
                + (" truncated" if self.truncated else ""))


@dataclasses.dataclass(frozen=True)
class ShardOutcome:
    """One completed shard, yielded by :meth:`ShardedCampaign.run_shards`."""

    index: int
    pairs: Tuple[Tuple[str, str], ...]
    cells: Tuple[CampaignCell, ...]
    #: True when replayed from the checkpoint store.
    served: bool
    #: The shard's merged telemetry snapshot (None when telemetry was
    #: disabled during measurement).
    snapshot: Optional[Dict[str, Any]]


def _run_shard(campaign: FaultCampaign, capture: Capture,
               pairs: Tuple[Tuple[str, str], ...]
               ) -> Tuple[List[CampaignCell], Optional[Dict[str, Any]]]:
    """Pool task: measure one whole shard, one pickled result.

    Runs the shard inside a :func:`~repro.observe.capture` when
    ``capture`` is set (an events-only one for :data:`EVENTS_ONLY`) and
    ships its snapshot home with the cells — the shard analogue of the
    pool's own chunk capture, but snapshotted here so the snapshot can
    be *checkpointed* alongside the cells and replayed on resume.
    """
    if not capture:
        return [campaign._measure(*pair) for pair in pairs], None
    with _capture(events_only=capture == EVENTS_ONLY) as telemetry:
        cells = [campaign._measure(*pair) for pair in pairs]
        return cells, telemetry.snapshot()


def _holds_every_event(snapshot: Any) -> bool:
    """Whether a telemetry snapshot carries as many events as its bus
    published (False for anything that is not a snapshot)."""
    try:
        events = snapshot["events"]
        return len(events["events"]) == events["published"]
    except (KeyError, TypeError):
        return False


class ShardedCampaign:
    """Drives a :class:`FaultCampaign` shard by shard.

    Args:
        campaign: The campaign to execute.  Its own ``store`` is
            ignored here (cells are addressed through the checkpoint
            ``store`` below); its ``stream`` is consulted for the live
            dashboard fold.
        shards: Target shard count (clamped to the grid size).
        store: Optional checkpoint :class:`ResultStore`.  Opened
            ``quiet=True`` by callers who need report byte-identity —
            checkpoint traffic differs between interrupted and
            uninterrupted runs and must not leak into the SLI section.
        resume: Serve already-checkpointed shards instead of
            re-executing them.
        max_shards: Complete only the first this-many shards of the
            plan (test and smoke hook for deterministic interruption);
            later shards are neither looked up nor submitted.
    """

    def __init__(self, campaign: FaultCampaign, shards: int,
                 store: Optional["ResultStore"] = None,
                 resume: bool = False,
                 max_shards: Optional[int] = None) -> None:
        if max_shards is not None and max_shards <= 0:
            raise ValueError("max_shards must be positive")
        self.campaign = campaign
        self.plan = ShardPlan.for_campaign(campaign, shards)
        self.store = store
        self.resume = resume
        self.max_shards = max_shards
        self.fingerprint = campaign_fingerprint(campaign)
        self.stats = ShardStats(shards_total=len(self.plan))

    # -- checkpoint addressing --------------------------------------------

    def shard_key(self, index: int, captured: Capture) -> str:
        """Content address of shard ``index``'s checkpoint record."""
        assert self.store is not None
        return self.store.key(
            SHARD_TASK,
            (self.fingerprint, index, len(self.plan),
             pairs_digest(self.plan.shards[index]), captured),
            seed=self.campaign.seed)

    def _valid(self, record: Any, index: int, captured: Capture) -> bool:
        """Paranoia gate on a served checkpoint: the key already pins
        fingerprint/index/digest/capture mode, but a malformed record
        (hand-edited log, version skew) must degrade to re-execution,
        not a crash.  The capture mode must match exactly: a snapshot
        kept in one mode never feeds a session of another.  A captured
        shard's snapshot must hold every event it published: one
        checkpointed while shard sessions kept only their last 4,096
        events would serve a report short of outcomes."""
        return (isinstance(record, dict)
                and record.get("schema") == SHARD_SCHEMA
                and record.get("campaign") == self.fingerprint
                and record.get("shard") == index
                and record.get("captured") == captured
                and tuple(record.get("pairs", ())) ==
                    self.plan.shards[index]
                and len(record.get("cells", ())) ==
                    len(self.plan.shards[index])
                and (not captured
                     or _holds_every_event(record.get("snapshot"))))

    def _checkpoint(self, index: int,
                    cells: Sequence[CampaignCell],
                    snapshot: Optional[Dict[str, Any]],
                    captured: Capture) -> None:
        """Persist one completed shard: the shard record plus every
        cell under its own content address (one flock'd append for the
        whole batch), so a later *unsharded* ``--store`` run serves the
        cells too."""
        assert self.store is not None
        pairs = self.plan.shards[index]
        record = {"schema": SHARD_SCHEMA,
                  "campaign": self.fingerprint,
                  "shard": index,
                  "shards": len(self.plan),
                  "pairs": pairs,
                  "pairs_digest": pairs_digest(pairs),
                  "captured": captured,
                  "cells": tuple(cells),
                  "snapshot": snapshot}
        entries: List[Dict[str, Any]] = [
            {"key": self.shard_key(index, captured), "value": record,
             "task": "campaign.shard", "seed": self.campaign.seed,
             "trials": len(cells)}]
        for cell in cells:
            entries.append(
                {"key": self.campaign._cell_key(cell.protector, cell.fault,
                                                store=self.store),
                 "value": cell, "task": "campaign.cell",
                 "seed": self.campaign.seed})
        self.store.put_many(entries)
        self.stats.shards_checkpointed += 1

    # -- execution --------------------------------------------------------

    def _execute(self, pending: List[int], capture: Capture
                 ) -> Iterator[Tuple[List[CampaignCell],
                                     Optional[Dict[str, Any]]]]:
        """Yield ``(cells, snapshot)`` for every pending shard, in
        ``pending`` order — pool ``imap`` for more than one worker
        (gathered in submission order, O(shard) in flight), and an
        inline loop otherwise.  The harness's one loop outside the
        pool: a serial ``imap`` yields once, at the end, and each shard
        must be checkpointed as it lands."""
        if not pending:
            return
        campaign = self.campaign
        import functools
        runner = functools.partial(_run_shard, campaign, capture)
        shard_lists = [self.plan.shards[index] for index in pending]
        if campaign.workers <= 1 or len(shard_lists) <= 1:
            for pairs in shard_lists:
                yield runner(pairs)
            return
        from repro.runtime.pmap import ParallelMap

        pool = ParallelMap(workers=campaign.workers)
        try:
            # chunk_size=1: a shard is already a coarse unit; never
            # re-bundle (or re-pickle) shards into larger chunks.
            for chunk in pool.imap(runner, shard_lists, chunk_size=1):
                for result in chunk:
                    yield result
        finally:
            campaign.pool_stats = pool.stats
            campaign.flight_records = pool.flight_records

    def _fold(self, index: int, snapshot: Optional[Dict[str, Any]],
              telemetry: Any) -> None:
        """Merge one shard's snapshot into the parent session, first
        offering it as a ``repro-delta/v1`` document to the live view
        of an attached stream (so ``--live`` dashboards see served
        shards too).  Always in plan order, which is what makes resumed
        and uninterrupted telemetry byte-identical."""
        if snapshot is None or not telemetry.enabled:
            return
        stream = self.campaign.stream
        if stream is not None:
            stream.offer(
                make_delta(("shard", index), 0, snapshot, final=True))
        telemetry.merge(snapshot)
        self.stats.deltas_folded += 1

    def run_shards(self) -> Iterator[ShardOutcome]:
        """Execute (or replay) the plan, yielding one
        :class:`ShardOutcome` per completed shard in plan order.

        The streaming entry point: the caller sees each shard's cells
        as they complete and this engine never holds more than the
        in-flight shards — fold the cells away (or into a report
        accumulator) and peak memory stays O(shard).
        """
        self.campaign._enforce_certificate()
        telemetry = _telemetry()
        capture: Capture = False
        if telemetry.enabled:
            capture = EVENTS_ONLY if telemetry.events_only else True
        self.stats = ShardStats(shards_total=len(self.plan))
        # Only the shards this run may complete are looked up or
        # submitted: a shard past ``max_shards`` handed to the pool
        # would keep running after the run returns.
        limit = (len(self.plan) if self.max_shards is None
                 else min(self.max_shards, len(self.plan)))
        served: Dict[int, Dict[str, Any]] = {}
        if self.store is not None and self.resume:
            from repro.runtime.store import MISS

            keys = {index: self.shard_key(index, capture)
                    for index in range(limit)}
            values = self.store.get_many(list(keys.values()))
            for index, key in keys.items():
                record = values[key]
                if record is not MISS and self._valid(record, index,
                                                      capture):
                    served[index] = record
        pending = [index for index in range(limit) if index not in served]
        executed = self._execute(pending, capture)
        try:
            for index in range(limit):
                pairs = self.plan.shards[index]
                was_served = index in served
                if was_served:
                    record = served.pop(index)
                    cells = tuple(record["cells"])
                    snapshot = record["snapshot"]
                    self.stats.shards_served += 1
                    self.stats.cells_served += len(cells)
                else:
                    raw_cells, snapshot = next(executed)
                    cells = tuple(raw_cells)
                    self.stats.shards_executed += 1
                    self.stats.cells_executed += len(cells)
                self._fold(index, snapshot, telemetry)
                if not was_served and self.store is not None:
                    self._checkpoint(index, cells, snapshot, capture)
                # Note: the payload must not say whether the shard was
                # served or executed — that differs between a resumed
                # and an uninterrupted run, and this event lands in the
                # telemetry both runs must agree on byte-for-byte.
                if telemetry.enabled:
                    telemetry.publish("campaign.shard", shard=index,
                                      cells=len(cells))
                yield ShardOutcome(index=index, pairs=pairs, cells=cells,
                                   served=was_served, snapshot=snapshot)
            self.stats.truncated = limit < len(self.plan)
        finally:
            executed.close()

    def run(self) -> List[CampaignCell]:
        """Collect every shard's cells, reassembled into the
        protector-major matrix order :meth:`FaultCampaign.run` uses —
        the convenience entry for report rendering (which needs the
        full matrix anyway).  Under ``max_shards`` truncation the
        completed subset is returned in plan order of arrival."""
        collected: Dict[Tuple[str, str], CampaignCell] = {}
        for outcome in self.run_shards():
            for cell in outcome.cells:
                collected[(cell.protector, cell.fault)] = cell
        return [collected[pair] for pair in self.campaign.pairs()
                if pair in collected]

"""Fault-injection campaigns: technique x fault-class coverage matrices.

The paper's taxonomy says which fault classes each technique addresses;
a :class:`FaultCampaign` *measures* it.  Given a set of protector
factories (each builds a guarded operation around an injected fault) and
a set of fault factories, the campaign runs every combination over a
seeded workload and reports the survival matrix — the executable version
of Table 2's "Faults" column, and the tool behind the integration test
suite's coverage claims.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.adjudicators import PredicateAcceptanceTest
from repro.components.library import diverse_versions
from repro.components.version import Version
from repro.environment import SimEnvironment
from repro.exceptions import RedundancyError, SimulatedFailure
from repro.faults.base import Fault
from repro.faults.development import Bohrbug, Heisenbug, InputRegion
from repro.faults.environmental import LoadBug, OverflowBug
from repro.faults.injector import FaultyFunction
from repro.harness.report import render_table
from repro.observe import current as _telemetry
from repro.techniques import (
    EnvironmentPerturbation,
    NVersionProgramming,
    RecoveryBlocks,
)

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.store import ResultStore, SourceMemo

#: Builds a fault instance (fresh per cell, so activation counters and
#: leak state never bleed between cells).
FaultFactory = Callable[[], Fault]

#: Builds a protected operation around a faulty function:
#: ``factory(faulty, env) -> callable(x) -> value``.
ProtectorFactory = Callable[[FaultyFunction, SimEnvironment],
                            Callable[[Any], Any]]


def _default_oracle(x: Any) -> Any:
    """The default intended computation (module-level so campaigns
    built on it stay picklable for process-pool fan-out)."""
    return x + 1


def _unprotected(faulty: FaultyFunction, env: SimEnvironment
                 ) -> Callable[[Any], Any]:
    """The always-present baseline: the faulty function, bare."""
    def call(x: Any) -> Any:
        return faulty(x, env=env)
    return call


# -- the demo injection matrix (``repro campaign`` / ``repro top``) --------
#
# Module-level for the same reason as the two above: a campaign built on
# them pickles by reference, so ``workers=N`` fans its cells out over
# worker processes instead of running them in the serial loop.

def _nvp_protector(faulty: FaultyFunction, env: SimEnvironment
                   ) -> Callable[[Any], Any]:
    """N-version programming (parallel evaluation): the injected
    version outvoted by two healthy diverse ones."""
    healthy = diverse_versions(_default_oracle, 2, 0.0, seed=1)
    injected = Version("injected", impl=lambda x: faulty(x, env=env))
    nvp = NVersionProgramming([injected, *healthy])
    return lambda x: nvp.execute(x, env=env)


def _rb_protector(faulty: FaultyFunction, env: SimEnvironment
                  ) -> Callable[[Any], Any]:
    """Recovery blocks (sequential alternatives): the injected primary,
    then the oracle as the alternate, behind an acceptance test."""
    rb = RecoveryBlocks(
        [Version("primary", impl=lambda x: faulty(x, env=env)),
         Version("alternate", impl=_default_oracle)],
        PredicateAcceptanceTest(lambda a, v: v == _default_oracle(a[0])))
    return lambda x: rb.execute(x)


def _rx_protector(faulty: FaultyFunction, env: SimEnvironment
                  ) -> Callable[[Any], Any]:
    """RX: re-execute the injected function in a perturbed
    environment."""
    rx = EnvironmentPerturbation(
        lambda x, env=None: faulty(x, env=env), env)
    return rx.execute


def _bohrbug() -> Fault:
    return Bohrbug("b", region=InputRegion(0, 10 ** 9))


def _heisenbug() -> Fault:
    return Heisenbug("h", probability=0.5)


def _overflow() -> Fault:
    return OverflowBug("o", overflow_cells=4, trigger_modulo=1)


def _load() -> Fault:
    return LoadBug("l", probability=0.9)


#: The demo matrix's protectors, in row order (``unprotected`` is added
#: last by :class:`FaultCampaign`).
DEMO_PROTECTORS: Dict[str, ProtectorFactory] = {
    "N-version (3)": _nvp_protector,
    "recovery blocks": _rb_protector,
    "RX perturbation": _rx_protector,
}

#: The demo matrix's faults, in column order.
DEMO_FAULTS: Dict[str, FaultFactory] = {
    "Bohrbug": _bohrbug,
    "Heisenbug": _heisenbug,
    "overflow": _overflow,
    "load": _load,
}


def _cell_seed(base: int, protector_label: str, fault_label: str) -> int:
    """Derive a cell's environment seed from its labels.

    Uses a stable CRC-32 digest rather than the builtin ``hash`` so the
    derivation is independent of ``PYTHONHASHSEED`` — campaign results
    reproduce across interpreter runs and across pool workers.
    """
    digest = zlib.crc32(f"{protector_label}|{fault_label}"
                        .encode("utf-8"))
    return base + digest % 10_000


@dataclasses.dataclass(frozen=True)
class CampaignCell:
    """One (protector, fault) measurement."""

    protector: str
    fault: str
    survival_rate: float
    correct_rate: float
    requests: int


class FaultCampaign:
    """Runs every protector against every fault over a seeded workload.

    Args:
        protectors: Label -> protector factory.  The special label
            ``"unprotected"`` is always added as the baseline.
        faults: Label -> fault factory.
        oracle: The intended computation (defaults to ``x + 1``).
        requests: Workload size per cell.
        seed: Base seed; each cell derives its own from a stable digest
            of its labels, so the matrix reproduces across interpreter
            runs regardless of ``PYTHONHASHSEED``.
        workers: Fan the matrix's cells out over this many pool
            workers.  Every cell is a pure function of its labels and
            the base seed, and results are gathered in matrix order, so
            any worker count yields a byte-identical table;
            :class:`~repro.runtime.pmap.ParallelMap` decides whether
            the cells run serially or on worker processes.
        batch: When set, the map's chunk size: each pool submission
            carries up to ``batch`` cells (one pickled result list per
            chunk) instead of the pool's default chunking — the
            campaign-side face of the batch kernel's coarse-unit
            discipline (see :mod:`repro.runtime.kernel`).  Cells stay
            individually content-addressed in the store, and any
            ``batch`` yields a byte-identical matrix because every cell
            is a pure function of its labels and the base seed.
        store: Optional :class:`~repro.runtime.store.ResultStore`.
            When set, each cell is looked up by content address —
            (protector + fault + oracle source versions, labels,
            ``requests``, base seed) — before executing and persisted
            after, so unchanged cells are served from disk across runs.
            A served cell is **not re-measured**: its ``campaign.cell``
            event is not re-published (``store.hit`` is, instead), and
            editing any factory or the oracle invalidates its cells.
        certify: Optional determinism certificate — a
            :class:`~repro.lint.deep.certificate.Certificate` or a path
            to one.  The oracle and every protector factory are checked
            before the matrix runs: advisory
            :class:`~repro.lint.deep.certificate.CertificationWarning`
            normally, strict :class:`~repro.exceptions.
            CertificationError` when ``batch=`` / ``store=`` is set.

    After a :meth:`run` that executes cells, :attr:`pool_stats` holds
    the map call's :class:`~repro.runtime.pmap.PoolStats` and
    :attr:`flight_records` any flight-recorder dumps it produced.
    """

    def __init__(self,
                 protectors: Dict[str, ProtectorFactory],
                 faults: Dict[str, FaultFactory],
                 oracle: Callable[[Any], Any] = _default_oracle,
                 requests: int = 100,
                 seed: int = 0,
                 workers: int = 1,
                 batch: Optional[int] = None,
                 store: Optional["ResultStore"] = None,
                 certify: Optional[Any] = None) -> None:
        if not protectors:
            raise ValueError("a campaign needs protectors")
        if not faults:
            raise ValueError("a campaign needs faults")
        if requests <= 0:
            raise ValueError("requests must be positive")
        if batch is not None and batch <= 0:
            raise ValueError("batch must be positive")
        self.protectors = dict(protectors)
        self.protectors.setdefault("unprotected", _unprotected)
        self.faults = dict(faults)
        self.oracle = oracle
        self.requests = requests
        self.seed = seed
        self.workers = workers
        self.batch = batch
        self.store = store
        self.certify = certify
        self.pool_stats: Optional[Any] = None
        self.flight_records: List[Any] = []
        #: Source digests of the oracle and factories, read once per
        #: campaign and shared by every key derived from them (cell
        #: keys, the shard fingerprint).
        self._sources: "SourceMemo" = {}

    def _enforce_certificate(self) -> None:
        """Gate on ``certify=`` (no-op when unset); runs once before
        the matrix, checking the oracle and the protector factories."""
        if self.certify is None:
            return
        from repro.lint.deep.certificate import enforce_certificate

        tasks: Dict[str, Callable] = {"oracle": self.oracle}
        for label, factory in self.protectors.items():
            tasks[f"protector:{label}"] = factory
        enforce_certificate(
            self.certify, tasks,
            strict=self.batch is not None or self.store is not None,
            context="fault campaign")

    def __getstate__(self) -> Dict[str, Any]:
        # The store is consulted (and written) parent-side only and
        # the certificate is enforced before fan-out; pool workers get
        # a copy without either so fan-out never depends on them being
        # picklable.  Keys are derived parent-side too, so the source
        # memo stays home.
        state = dict(self.__dict__)
        state["store"] = None
        state["certify"] = None
        state["flight_records"] = []
        state["_sources"] = {}
        return state

    def _cell_key(self, protector_label: str, fault_label: str,
                  store: Optional["ResultStore"] = None) -> str:
        """Content address of one cell: the labels, workload size and
        base seed, salted with the source versions of the protector
        factory, the fault factory and the oracle.  ``store`` overrides
        the campaign's own (the shard checkpointer addresses cells
        through the checkpoint store, so a later unsharded ``store=``
        run serves them)."""
        from repro.runtime.store import code_fingerprint

        code = code_fingerprint(self.protectors[protector_label],
                                self.faults[fault_label], self.oracle,
                                memo=self._sources)
        return (store if store is not None else self.store).key(
            "repro.harness.campaign.cell",
            (protector_label, fault_label, self.requests),
            seed=self.seed, code=code)

    def _measure(self, protector_label: str, fault_label: str
                 ) -> CampaignCell:
        """The raw (uncached) cell measurement."""
        env = SimEnvironment(
            seed=_cell_seed(self.seed, protector_label, fault_label))
        fault = self.faults[fault_label]()
        faulty = FaultyFunction(self.oracle, faults=[fault])
        protected = self.protectors[protector_label](faulty, env)
        survived = correct = 0
        for x in range(self.requests):
            try:
                value = protected(x)
            except (SimulatedFailure, RedundancyError):
                continue
            survived += 1
            correct += value == self.oracle(x)
        tel = _telemetry()
        if tel.enabled:
            tel.publish("campaign.cell", protector=protector_label,
                        fault=fault_label,
                        survival_rate=survived / self.requests,
                        correct_rate=correct / self.requests)
            tel.metrics.inc("repro_campaign_cells_total",
                            protector=protector_label)
        return CampaignCell(protector=protector_label, fault=fault_label,
                            survival_rate=survived / self.requests,
                            correct_rate=correct / self.requests,
                            requests=self.requests)

    def _run_pair(self, pair: Tuple[str, str]) -> CampaignCell:
        """Pool task: one labelled cell (picklable when the campaign's
        factories and oracle are).  Always the raw measurement — the
        store is consulted parent-side so workers never write it."""
        return self._measure(*pair)

    def pairs(self) -> List[Tuple[str, str]]:
        """The full (protector, fault) pair list, protector-major —
        the matrix order every report renders in, and the input the
        sharded engine (:mod:`repro.harness.shard`) partitions."""
        return [(protector, fault)
                for protector in self.protectors
                for fault in self.faults]

    def run(self) -> List[CampaignCell]:
        """The full matrix, protector-major."""
        self._enforce_certificate()
        pairs = self.pairs()
        if self.store is None:
            return self._execute(pairs)
        return self.store.serve(
            [self._cell_key(*pair) for pair in pairs],
            lambda missing: self._execute([pairs[i] for i in missing]),
            task="campaign.cell", seeds=[self.seed] * len(pairs))

    def _execute(self, pairs: List[Tuple[str, str]]) -> List[CampaignCell]:
        """Measure ``pairs`` (a sub-list on store partial hits), in
        order, in one pool map (``batch`` cells per chunk)."""
        from repro.runtime.pmap import ParallelMap

        pool = ParallelMap(workers=self.workers)
        try:
            return pool.map(self._run_pair, pairs, chunk_size=self.batch)
        finally:
            self.pool_stats = pool.stats
            self.flight_records = pool.flight_records

    def matrix(self) -> Dict[Tuple[str, str], CampaignCell]:
        """The matrix keyed by (protector, fault)."""
        return {(cell.protector, cell.fault): cell for cell in self.run()}

    def render(self, title: str = "fault-injection campaign") -> str:
        """The survival matrix as a table: one row per protector."""
        return self.render_from(self.run(), title=title)

    def render_from(self, cells: List[CampaignCell],
                    title: str = "fault-injection campaign") -> str:
        """Render precomputed cells (e.g. a sharded run's) as the same
        matrix table :meth:`render` produces."""
        fault_labels = list(self.faults)
        lookup = {(cell.protector, cell.fault): cell for cell in cells}
        rows = []
        for protector in self.protectors:
            row = [protector]
            for fault in fault_labels:
                cell = lookup[(protector, fault)]
                row.append(f"{cell.correct_rate:.0%}")
            rows.append(row)
        return render_table(["protector \\ fault", *fault_labels], rows,
                            title=title)

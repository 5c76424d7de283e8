"""The yardstick: the frozen program snapshot, loaded beside the live one.

``corpus/repro-src.tar.xz`` holds ``src/repro`` as it was when the
benchmark was written.  :class:`Snapshot` imports it as a second copy of
``repro`` in the same process and keeps the two copies apart: while it
runs, its own modules are installed in ``sys.modules`` (the program's
imports inside functions resolve there) and the interpreter settings
the program could tune (:func:`process_state`) are set to its own.  The
benchmark runs each live op and the same op on the snapshot back to
back, collecting garbage before each, so both see the same host, heap
and collector; their ratio does not move when the host's speed does.
"""

from __future__ import annotations

import compileall
import contextlib
import gc
import importlib
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads


def process_state() -> Dict[str, Any]:
    """The process-wide settings both copies share: the collector's
    thresholds, whether it runs, whether objects are frozen out of it,
    and the GIL's switch interval."""
    return {"gc_threshold": gc.get_threshold(), "gc_enabled": gc.isenabled(),
            "gc_frozen": gc.get_freeze_count() > 0,
            "switch_interval": sys.getswitchinterval()}


def set_process_state(state: Dict[str, Any]) -> None:
    """Apply a :func:`process_state`.  Objects frozen out of the
    collector are released; freezing again freezes every object alive."""
    gc.set_threshold(*state["gc_threshold"])
    (gc.enable if state["gc_enabled"] else gc.disable)()
    if state["gc_frozen"] != (gc.get_freeze_count() > 0):
        (gc.freeze if state["gc_frozen"] else gc.unfreeze)()
    sys.setswitchinterval(state["switch_interval"])


def _take_modules() -> Dict[str, Any]:
    """Remove every ``repro`` module from ``sys.modules``; return them."""
    names = [name for name in sys.modules
             if name == "repro" or name.startswith("repro.")]
    return {name: sys.modules.pop(name) for name in names}


class Snapshot:
    """The snapshot copy of the program and its own workload instance.

    ``state`` is the :func:`process_state` the snapshot runs under,
    taken before the live program was imported.
    """

    def __init__(self, workload: str, seed: int, tmp: Path,
                 state: Dict[str, Any]) -> None:
        self.state = state
        self.root = tmp / "program"
        live = _take_modules()
        try:
            workloads.unpack_corpus(self.root)
            # Bytecode for every module up front, as the live copy has
            # it from earlier runs: neither copy's ops pay for compiling.
            compileall.compile_dir(self.root, quiet=1)
            sys.path.insert(0, str(self.root))
            importlib.invalidate_caches()
            try:
                import repro.cli
            finally:
                sys.path.remove(str(self.root))
            where = Path(repro.cli.__file__).resolve()
            if self.root.resolve() not in where.parents:
                raise RuntimeError(f"snapshot imported {where}")
        finally:
            self.modules = _take_modules()
            sys.modules.update(live)
        self.workload = workloads.WORKLOADS[workload](tmp / "work", seed)
        self.workload.tmp.mkdir()
        self._cells: Dict[int, Optional[List[Dict[str, Any]]]] = {}

    @contextlib.contextmanager
    def active(self):
        """Run the enclosed code against the snapshot copy.  Each copy's
        module set and process state are taken back whole on every
        switch, modules it imported lazily since the last switch
        included."""
        live = _take_modules()
        live_state = process_state()
        sys.modules.update(self.modules)
        set_process_state(self.state)
        try:
            yield
        finally:
            self.modules = _take_modules()
            self.state = process_state()
            sys.modules.update(live)
            set_process_state(live_state)

    def op(self, i: int) -> Dict[str, Any]:
        """Op ``i`` on the snapshot: its wall, exit code and cells."""
        with self.active():
            gc.collect()
            t0 = time.perf_counter()
            out = self.workload.op(i)
            wall = time.perf_counter() - t0
            self.workload.release(i, out)
        return {"wall": wall, "rc": out["rc"],
                "cells": self.workload.cells(out)}

    def reference(self, i: int) -> Dict[str, Any]:
        """What the snapshot computes for op ``i``, as :meth:`op` gives
        it, without timing an op: the cells of op ``i``'s seed through
        the plain serial path (one worker, no store, no telemetry)."""
        if not self.workload.trials_per_op:
            return {"rc": 0, "cells": None}
        seed = self.workload.seed_of(i)
        if seed not in self._cells:
            with self.active():
                self._cells[seed] = workloads.reference_cells(seed)
        return {"rc": 0, "cells": self._cells[seed]}

    def close(self) -> None:
        """Stop the snapshot copy's worker pools."""
        with self.active():
            from repro.runtime.pool import shutdown_pools

            shutdown_pools(wait=True)

"""Content-addressed, disk-backed result store for pure harness work.

The paper's checkpoint-recovery and data-diversity techniques persist
the results of expensive pure computations so faults (or reruns) do not
repay the full execution cost; this module applies the same mechanics
to the harness itself.  Every unit the runtime fans out — a seeded
trial, a ``(protector, fault)`` campaign cell, a benchmark file — is a
pure function of its arguments, so its result can be **addressed by
content**: a ``PYTHONHASHSEED``-stable fingerprint of

* the task's qualified name,
* a digest (CRC-32 + SHA-256) of its pickled arguments,
* the seed, and
* a *code version* (a digest of the task's source), so edited code
  invalidates every result it produced.

:class:`ResultStore` is a two-tier cache behind that key:

* **memory tier** — a :class:`~repro.runtime.cache.MemoCache` LRU, so
  repeated lookups within a process never touch disk;
* **disk tier** — an append-only JSONL log replayed into a plain dict
  from key to its parsed record, so a lookup costs one dict probe.
  Appends are single ``O_APPEND`` writes under an advisory ``flock``,
  so concurrent writers from pool workers or parallel CI jobs
  interleave whole records, never bytes; readers pick up foreign
  appends on :meth:`refresh` (called automatically on a miss when the
  log grew).  A record whose payload does not decode (not hex, or not
  a whole pickle) counts as a corrupt line and gives way to the key's
  next record in the log, or to a miss, so the caller recomputes it.

Caching is **opt-in everywhere** (the ``store=`` knobs on
:class:`~repro.harness.experiment.Experiment`,
:class:`~repro.harness.campaign.FaultCampaign` and ``repro bench
--incremental``): redundancy masks faults by re-executing, and a served
result is never re-voted or re-checked — see docs/PERFORMANCE.md for
the key schema and the invalidation contract.

Hit/miss/bytes accounting flows through an installed telemetry session
as ``repro_runtime_store_*`` counters and ``store.hit`` /
``store.miss`` / ``store.write`` events (surfaced by the SLI report).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import zlib
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro._util import stable_int
from repro.observe import current as _telemetry
from repro.runtime.cache import MemoCache

__all__ = ["MISS", "ResultStore", "args_digest", "code_fingerprint",
           "fingerprint"]

#: Sentinel returned by :meth:`ResultStore.get` on a miss — a stored
#: ``None`` is a legitimate hit.
MISS = object()

#: Pickle protocol pinned for key stability: the digest of the pickled
#: arguments is part of the content address, so it must not change when
#: the interpreter's default protocol does.
_PICKLE_PROTOCOL = 4


def args_digest(args: Any) -> str:
    """A ``PYTHONHASHSEED``-stable digest of pickled arguments.

    CRC-32 plus truncated SHA-256 of the pickled bytes.  Stable for the
    argument shapes harness tasks use (ints, floats, strings, tuples,
    dicts — insertion-ordered); unordered containers such as sets
    pickle in iteration order and are **not** stable keys.
    """
    data = pickle.dumps(args, protocol=_PICKLE_PROTOCOL)
    return (f"{zlib.crc32(data):08x}"
            f"-{hashlib.sha256(data).hexdigest()[:24]}")


#: ``id(callable) -> (callable, its source digest)``: a caller-owned
#: memo for :func:`code_fingerprint`.  Holding the callable keeps its
#: id from being reused while the memo lives.
SourceMemo = Dict[int, Tuple[Callable, str]]


def _source_digest(fn: Callable) -> str:
    """``module.qualname=sha256(source)`` for one callable."""
    try:
        body = inspect.getsource(fn)
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        body = code.co_code.hex() if code is not None else repr(fn)
    name = (f"{getattr(fn, '__module__', '?')}"
            f".{getattr(fn, '__qualname__', type(fn).__name__)}")
    return f"{name}={hashlib.sha256(body.encode('utf-8')).hexdigest()}"


def code_fingerprint(*callables: Callable,
                     memo: Optional[SourceMemo] = None) -> str:
    """A digest of the *source* of one or more callables.

    Editing a task (or any helper passed alongside it) changes the
    fingerprint and therefore every key derived from it, so stale
    results are never served after a code change.  Falls back to the
    compiled bytecode for callables without retrievable source (e.g.
    defined in a REPL) and to the repr for builtins.

    ``memo`` lets a caller that fingerprints the same callables many
    times (a campaign keys every cell by its factories) read each
    source once: a callable already in the memo reuses its digest.
    The fingerprint is the same with or without it.
    """
    parts = []
    for fn in callables:
        entry = memo.get(id(fn)) if memo is not None else None
        if entry is None or entry[0] is not fn:
            entry = (fn, _source_digest(fn))
            if memo is not None:
                memo[id(fn)] = entry
        parts.append(entry[1])
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def fingerprint(task_name: str, digest: str, seed: Optional[int],
                code: str) -> str:
    """The content address: task x args-digest x seed x code version."""
    raw = f"{task_name}|{digest}|{seed}|{code}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class ResultStore:
    """A two-tier (memory LRU + disk JSONL) content-addressed store.

    Args:
        path: The append-only JSONL log file (created on first write;
            parent directories are created eagerly).
        name: Label on the ``repro_runtime_store_*`` metrics and
            ``store.*`` events this store emits.
        memory_entries: LRU capacity of the in-memory front tier.
        quiet: Suppress the store's telemetry (``repro_runtime_store_*``
            counters and ``store.*`` events).  Python-side counters and
            :meth:`stats` still accumulate.  The shard checkpoint store
            runs quiet because its traffic differs between an
            interrupted-and-resumed campaign and an uninterrupted one —
            traffic that, published, would reach the SLI store table
            and break the report's interrupted-vs-uninterrupted
            byte-identity (see :mod:`repro.harness.shard`).

    Values are pickled; anything the parallel runtime can ship across a
    process pool stores fine.  Two stores (or two processes) may share
    one path: writes append whole records under an advisory lock, and
    a reader that misses re-reads any bytes appended since its last
    load before declaring the miss.
    """

    def __init__(self, path: Union[str, os.PathLike], name: str = "results",
                 memory_entries: Optional[int] = 1024,
                 quiet: bool = False) -> None:
        self.path = os.fspath(path)
        self.name = name
        self.quiet = quiet
        self.memory = MemoCache(name=f"{name}-mem",
                                max_entries=memory_entries, quiet=quiet)
        #: ``key -> parsed record`` for every key in the log consumed so
        #: far; the first record for a key wins.
        self._rows: Dict[str, Dict[str, Any]] = {}
        #: ``key -> its later records``, in log order, for keys the log
        #: holds more than once (two writers computed the same key):
        #: what is served when the indexed record's payload is damaged.
        self._spares: Dict[str, List[Dict[str, Any]]] = {}
        #: Bytes of the log consumed into the index so far.
        self._offset = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Trials served/stored through batch records (a scalar record
        #: counts 1; a batch record counts its batch size), so the SLI
        #: store-traffic table can report per-batch hit accounting.
        self.trials_served = 0
        self.trials_stored = 0
        #: Records written through :meth:`put_many` (one flock'd append
        #: per batch, rather than one per record).
        self.puts_batched = 0
        #: ``key -> trials`` for batch records seen via put/index.
        self._trials: Dict[str, int] = {}
        #: Log lines that are not a store record, or whose payload does
        #: not decode (skipped, never fatal).
        self.corrupt_lines = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.refresh()

    def __len__(self) -> int:
        return self.entries

    @property
    def entries(self) -> int:
        """Distinct keys indexed from the log."""
        return len(self._rows)

    # -- keys --------------------------------------------------------------

    def key(self, task: Union[str, Callable], args: Any = (),
            seed: Optional[int] = None, code: Optional[str] = None) -> str:
        """The content address for ``task(*args)`` at ``seed``.

        ``task`` may be a callable (its qualified name is used, and its
        :func:`code_fingerprint` when ``code`` is not given) or a plain
        string name (then ``code`` defaults to empty — pass one
        explicitly to get invalidation-on-change).
        """
        if callable(task):
            name = (f"{getattr(task, '__module__', '?')}"
                    f".{getattr(task, '__qualname__', repr(task))}")
            if code is None:
                code = code_fingerprint(task)
        else:
            name = task
            code = code or ""
        return fingerprint(name, args_digest(args), seed, code)

    # -- the two-tier lookup ----------------------------------------------

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or :data:`MISS`.

        Memory tier first; then the log index, refreshed from the log
        when another writer has appended since the last read.  A disk
        hit is promoted into the memory tier.
        """
        value = self.memory.get(key, default=MISS)
        if value is not MISS:
            self._record_hit(key, tier="memory")
            return value
        row = self._rows.get(key)
        if row is None and self._log_grew():
            self.refresh()
            row = self._rows.get(key)
        value = MISS if row is None else self._load_row(key, row)
        if value is MISS:
            self._record_miss()
        return value

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """``{key: value-or-MISS}`` for every key.

        The batched counterpart of :meth:`get`: the memory tier is
        consulted per key, then every remaining key is looked up in the
        log index with **at most one** log refresh for the whole list,
        not one per key.  Hit/miss accounting and
        ``store.hit``/``store.miss`` events are identical to
        ``{k: self.get(k) for k in keys}``.
        """
        out: Dict[str, Any] = {}
        wanted: Dict[str, None] = {}  # insertion-ordered key set
        for key in keys:
            if key in out or key in wanted:
                continue
            value = self.memory.get(key, default=MISS)
            if value is not MISS:
                self._record_hit(key, tier="memory")
                out[key] = value
            else:
                wanted[key] = None
        if wanted:
            rows = self._lookup_many(wanted)
            if len(rows) < len(wanted) and self._log_grew():
                self.refresh()
                rows = self._lookup_many(wanted)
            for key in wanted:
                row = rows.get(key)
                value = MISS if row is None else self._load_row(key, row)
                if value is MISS:
                    self._record_miss()
                out[key] = value
        return out

    def _record_miss(self) -> None:
        self.misses += 1
        self._count("misses")
        self._publish("store.miss")

    def _record_hit(self, key: str, tier: str, bytes_read: int = 0
                    ) -> None:
        self.hits += 1
        trials = self._trials.get(key, 1)
        self.trials_served += trials
        self._count("hits")
        self._count("trials_served", trials)
        payload: Dict[str, Any] = {"tier": tier}
        if bytes_read:
            payload["bytes"] = bytes_read
        if trials > 1:
            payload["trials"] = trials
        self._publish("store.hit", **payload)

    def _load_row(self, key: str, row: Optional[Dict[str, Any]]) -> Any:
        """Decode a disk row, promote it into memory, account the hit.

        A row whose payload is not hex, or not a whole pickle, counts
        as a corrupt line and leaves the index; the key's next record
        in the log takes its place and is tried in turn.  With none
        left the result is :data:`MISS` (not yet accounted), so the
        caller recomputes the value and appends it afresh.
        """
        while row is not None:
            try:
                payload = bytes.fromhex(row["payload"])
                value = pickle.loads(payload)
            except (ValueError, EOFError, pickle.UnpicklingError):
                self.corrupt_lines += 1
                row = self._next_record(key)
                continue
            self.bytes_read += len(payload)
            self.memory.put(key, value)
            self._count("bytes_read", len(payload))
            self._record_hit(key, tier="disk", bytes_read=len(payload))
            return value
        return MISS

    def _next_record(self, key: str) -> Optional[Dict[str, Any]]:
        """Index ``key``'s next record in place of a damaged one; drop
        the key when the log holds no other record of it."""
        spares = self._spares.get(key)
        self._trials.pop(key, None)
        if not spares:
            self._spares.pop(key, None)
            del self._rows[key]
            return None
        row = self._rows[key] = spares.pop(0)
        trials = row.get("trials")
        if isinstance(trials, int) and trials > 1:
            self._trials[key] = trials
        return row

    def put(self, key: str, value: Any, task: str = "?",
            seed: Optional[int] = None, trials: int = 1) -> None:
        """Persist ``value`` under ``key`` (append + index + memory).

        ``trials`` labels batch records with the number of trials the
        one record carries (1 for scalar records); it is persisted in
        the row, so later readers — including other processes — account
        batch hits as ``trials`` served, and ``store.hit`` /
        ``store.write`` events carry ``trials=`` for the SLI
        store-traffic table.
        """
        line = self._encode(key, value, task, seed, trials)
        self._append(line)
        # Consuming the log from the previous offset indexes our record
        # *and* any foreign appends that landed before it.
        self.refresh()
        self._account_write(key, value, trials, line)

    def put_many(self, entries: Sequence[Dict[str, Any]]) -> None:
        """Persist many records with **one** flock'd append.

        Each entry is a dict with ``key`` and ``value`` plus the
        optional :meth:`put` fields ``task``/``seed``/``trials``.  The
        whole batch lands as a single ``O_APPEND`` write under one
        advisory lock — so a shard checkpoint (the shard record plus
        its cell records) or a batched experiment's miss tail pays one
        lock round-trip, not N — followed by a single :meth:`refresh`.
        Per-record accounting (counters, ``store.write`` events) is
        identical to N scalar puts; :attr:`puts_batched` counts the
        records that took this path.
        """
        staged = [(entry["key"], entry["value"],
                   int(entry.get("trials", 1)),
                   self._encode(entry["key"], entry["value"],
                                entry.get("task", "?"),
                                entry.get("seed"),
                                int(entry.get("trials", 1))))
                  for entry in entries]
        if not staged:
            return
        self._append(b"".join(line for _, _, _, line in staged))
        self.refresh()
        for key, value, trials, line in staged:
            self._account_write(key, value, trials, line)
        self.puts_batched += len(staged)

    def _encode(self, key: str, value: Any, task: str,
                seed: Optional[int], trials: int) -> bytes:
        """One record as its JSONL line (shared by put / put_many)."""
        payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL).hex()
        row = {"id": stable_int(key, modulo=2 ** 62), "key": key,
               "task": task, "seed": seed, "payload": payload}
        if trials != 1:
            row["trials"] = trials
        return (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")

    def _account_write(self, key: str, value: Any, trials: int,
                       line: bytes) -> None:
        """Memory promotion + counters + events for one written record."""
        self.memory.put(key, value)
        self.writes += 1
        self.bytes_written += len(line)
        self.trials_stored += trials
        self._count("writes")
        self._count("bytes_written", len(line))
        self._count("trials_stored", trials)
        event: Dict[str, Any] = {"bytes": len(line)}
        if trials > 1:
            event["trials"] = trials
        self._publish("store.write", **event)

    def get_or_call(self, fn: Callable, *args: Any,
                    seed: Optional[int] = None,
                    code: Optional[str] = None,
                    task_name: Optional[str] = None) -> Any:
        """``fn(*args)``, served from the store when already computed."""
        key = self.key(task_name if task_name is not None else fn,
                       args, seed=seed,
                       code=code if code is not None
                       else code_fingerprint(fn))
        value = self.get(key)
        if value is MISS:
            value = fn(*args)
            self.put(key, value,
                     task=task_name or getattr(fn, "__qualname__",
                                               repr(fn)),
                     seed=seed)
        return value

    # -- disk log ----------------------------------------------------------

    def refresh(self) -> int:
        """Replay log bytes appended since the last read; returns the
        number of new entries indexed."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0
        if size <= self._offset:
            return 0
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        # Consume only whole lines; a torn trailing record (possible
        # only on non-POSIX appends) is left for the next refresh.
        end = data.rfind(b"\n") + 1
        if end == 0:
            return 0
        self._offset += end
        rows = self._rows
        added = 0
        for raw in data[:end].splitlines():
            try:
                row = json.loads(raw)
            except ValueError:
                row = None
            if not (isinstance(row, dict)
                    and isinstance(row.get("key"), str)
                    and isinstance(row.get("payload"), str)):
                self.corrupt_lines += 1
                continue
            key = row["key"]
            if key in rows:
                # The same key computed by two writers: the first
                # record wins and the duplicate is not an error.  It
                # is kept aside, to serve if the first one's payload
                # turns out to be damaged.
                self._spares.setdefault(key, []).append(row)
                continue
            rows[key] = row
            trials = row.get("trials")
            if isinstance(trials, int) and trials > 1:
                self._trials[key] = trials
            added += 1
        return added

    def _log_grew(self) -> bool:
        try:
            return os.path.getsize(self.path) > self._offset
        except OSError:
            return False

    def _append(self, line: bytes) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            try:
                import fcntl
                fcntl.flock(fd, fcntl.LOCK_EX)
            except ImportError:  # pragma: no cover - non-POSIX hosts
                pass
            os.write(fd, line)
        finally:
            os.close(fd)

    def _lookup_many(self, keys: Dict[str, None]) -> Dict[str, Any]:
        """``key -> row`` for every indexed key of ``keys``: one dict
        lookup per key (the index already keeps the first record of
        each key)."""
        rows = self._rows
        return {key: rows[key] for key in keys if key in rows}

    # -- accounting --------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """The counters as a flat dict (reports, assertions, bench)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "entries": self.entries,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "trials_served": self.trials_served,
                "trials_stored": self.trials_stored,
                "puts_batched": self.puts_batched,
                "corrupt_lines": self.corrupt_lines,
                "hit_rate": round(self.hit_rate, 4),
                "memory": self.memory.stats()}

    def _count(self, which: str, amount: float = 1.0) -> None:
        if self.quiet:
            return
        tel = _telemetry()
        if tel.enabled:
            tel.metrics.inc(f"repro_runtime_store_{which}_total", amount,
                            store=self.name)

    def _publish(self, topic: str, **payload: Any) -> None:
        if self.quiet:
            return
        tel = _telemetry()
        if tel.enabled:
            tel.publish(topic, store=self.name, **payload)

"""Property: the result store's head index serves what a full parse serves.

A store indexes each log line by the key in its head and parses a line
only when a lookup serves it.  Whatever the log holds (duplicate
records, damaged payloads, records cut short after the head, junk, a
torn last line), a fresh store must serve every key exactly as a
reader that parses every whole line would: the first record of the key
in log order whose payload decodes, or a miss.
"""

import json
import pathlib
import pickle
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.store import MISS, ResultStore, fingerprint

KEYS = [fingerprint("task", f"args-{i}", 0, "v1") for i in range(4)]

_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=5)

_PAYLOAD = b'"payload": "'


def _with_payload(line, damage):
    row = json.loads(line)
    row["payload"] = damage(row["payload"])
    return (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")


def _not_hex(payload):
    return "zz" + payload[2:]


def _truncated(payload):
    return payload[:len(payload) // 4 * 2]


def _cut_after_head(line):
    return line[:line.index(_PAYLOAD) + len(_PAYLOAD)] + b"\n"


#: Key bytes a record head can hold but no key is made of: non-ASCII
#: text, and bytes that are not UTF-8 at all.
_foreign_keys = st.one_of(
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0x2FFF,
                          blacklist_categories=("Cs",)),
            min_size=1, max_size=4).map(str.encode),
    st.binary(min_size=1, max_size=6).map(
        lambda raw: bytes(byte | 0x80 for byte in raw)))


def _extra_lines(lines):
    """Lines added to a log of record ``lines``."""
    record = st.sampled_from(lines)
    return st.one_of(
        record,
        record.map(lambda line: _with_payload(line, _not_hex)),
        record.map(lambda line: _with_payload(line, _truncated)),
        record.map(_cut_after_head),
        st.binary(max_size=40).map(
            lambda junk: junk.replace(b"\n", b"") + b"\n"),
        # Head-shaped, with a payload that never decodes.
        _foreign_keys.map(lambda key: b'{"id": 0, "key": "' + key
                          + b'", "payload": "zz"}\n'))


def full_parse(log, keys):
    """What a reader parsing every whole line serves for ``keys``."""
    served = {}
    for line in log.split(b"\n")[:-1]:
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not (isinstance(row, dict) and isinstance(row.get("key"), str)
                and isinstance(row.get("payload"), str)) \
                or row["key"] in served:
            continue
        try:
            served[row["key"]] = pickle.loads(bytes.fromhex(row["payload"]))
        except (ValueError, EOFError, pickle.UnpicklingError):
            continue
    return {key: served.get(key, MISS) for key in keys}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_head_index_serves_what_a_full_parse_serves(data):
    records = data.draw(st.lists(st.tuples(st.sampled_from(KEYS), _values),
                                 min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        written = pathlib.Path(tmp, "written.jsonl")
        ResultStore(written).put_many([{"key": key, "value": value}
                                       for key, value in records])
        lines = written.read_bytes().splitlines(keepends=True)
        extra = data.draw(st.lists(_extra_lines(lines), max_size=8))
        torn = data.draw(st.none() | st.sampled_from(lines).flatmap(
            lambda line: st.integers(1, len(line) - 1).map(
                lambda cut: line[:cut])))
        log = b"".join(data.draw(st.permutations(lines + extra))) \
            + (torn or b"")
        path = pathlib.Path(tmp, "log.jsonl")
        path.write_bytes(log)
        store = ResultStore(path)
        served = store.get_many(KEYS)
    expected = full_parse(log, KEYS)
    assert served == expected
    hits = sum(value is not MISS for value in expected.values())
    assert (store.hits, store.misses) == (hits, len(KEYS) - hits)

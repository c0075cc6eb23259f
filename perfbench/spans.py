"""Span recorder for the traced benchmark run.

The faarm package is not modified. Instead, a wrapper is installed on each
name at the place its caller looks it up: `monitor` imports `hash_data`,
`verify`, `signing_payload`, `canonical_bytes` and `read_bundle` by name,
`mcu` imports `hash_data`, `packaging.read_bundle` calls the module-level
`parse_manifest`, `state` reaches `fsync` through its `os` global, and
methods are looked up on their classes. Wrappers are installed only around a
traced op, so untraced ops run the unmodified code.

Spans live in flat arrays (name id, op id, parent index, start ns, end ns,
bytes) and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path


def _first_len(args):
    return len(args[0])


def _second_len(args):
    return len(args[1])


def _third_len(args):
    return len(args[2])


class _OsProxy:
    """Stands in for the `os` global of `faarm.state`: every name resolves to
    the real module except `fsync`, which is the traced wrapper."""

    def __init__(self, real, fsync):
        self._real = real
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(self._real, name)


def layer_targets():
    """(owner, attribute, span name, byte-count function) for every traced
    entry point. The span name's first component is the layer."""
    from faarm import cli, crypto, mcu, monitor, packaging, state

    region = mcu.McuRegion
    store = state.SecureStateStore
    return [
        (monitor, "hash_data", "crypto.hash_data", _first_len),
        (mcu, "hash_data", "crypto.hash_data", _first_len),
        (monitor, "verify", "crypto.verify", None),
        (monitor, "signing_payload", "crypto.signing_payload", None),
        (crypto.PublicKey, "from_file_bytes", "crypto.PublicKey.from_file_bytes", None),
        (monitor, "read_bundle", "packaging.read_bundle", None),
        (monitor, "canonical_bytes", "packaging.canonical_bytes", None),
        (packaging, "canonical_bytes", "packaging.canonical_bytes", None),
        (packaging, "parse_manifest", "packaging.parse_manifest", _first_len),
        (region, "el1_write", "mcu.el1_write", _third_len),
        (region, "snapshot", "mcu.snapshot", None),
        (region, "unlock_for_update", "mcu.unlock_for_update", None),
        (region, "secure_write", "mcu.secure_write", _second_len),
        (region, "lock", "mcu.lock", None),
        (region, "restore", "mcu.restore", None),
        (region, "fire", "mcu.fire", None),
        (region, "dump", "mcu.dump", None),
        (store, "load", "state.load", None),
        (store, "check_version", "state.check_version", None),
        (store, "append_audit", "state.append_audit", None),
        (store, "commit_version", "state.commit_version", None),
        (store, "close", "state.close", None),
        (state, "os", "state.fsync", None),
        (monitor.Monitor, "verify_bundle", "monitor.verify_bundle", None),
        (cli, "main", "cli.main", None),
    ]


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("q")
        self.op = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.nbytes = array.array("q")
        self._stack: list[int] = []
        self._op_id = -1
        self._patches = [self._make_patch(*target) for target in layer_targets()]

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, op_id: int, parent: int, start: int, end: int,
            nbytes: int = 0) -> int:
        self.name.append(self.name_id(name))
        self.op.append(op_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.nbytes.append(nbytes)
        return len(self.start) - 1

    def wrap(self, span_name: str, fn, size_of=None):
        nid = self.name_id(span_name)
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack
            idx = len(rec.start)
            rec.name.append(nid)
            rec.op.append(rec._op_id)
            rec.parent.append(stack[-1] if stack else -1)
            rec.nbytes.append(size_of(args) if size_of is not None else 0)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _make_patch(self, owner, attr, span_name, size_of):
        original = inspect.getattr_static(owner, attr)
        if attr == "os":
            replacement = _OsProxy(original, self.wrap(span_name, original.fsync))
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(span_name, original.__func__, size_of))
        else:
            replacement = self.wrap(span_name, original, size_of)
        return owner, attr, original, replacement

    def install(self, op_id: int) -> None:
        self._op_id = op_id
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._op_id = -1

    # -- transfer ------------------------------------------------------------

    def rows(self) -> list[list]:
        return [
            [self.names[n], o, p, s, e, b]
            for n, o, p, s, e, b in zip(
                self.name, self.op, self.parent, self.start, self.end, self.nbytes
            )
        ]

    def merge(self, op_id: int, rows: list[list]) -> None:
        """Append spans recorded in another process as spans of op_id."""
        base = len(self.start)
        for name, _, parent, start, end, nbytes in rows:
            self.add(name, op_id, parent + base if parent >= 0 else -1, start, end, nbytes)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "columns": ["name", "op", "parent", "start_ns",
                                                     "end_ns", "bytes"]}) + "\n")
            for n, o, p, s, e, b in zip(
                self.name, self.op, self.parent, self.start, self.end, self.nbytes
            ):
                fh.write(f'["{self.names[n]}",{o},{p},{s},{e},{b}]\n')


# -- summary ------------------------------------------------------------------


class Summary:
    """Per-entry-point totals over the spans of the ops in `factors`, each
    op's durations multiplied by its factor.

    A span's self time is its duration minus the time its child spans cover.
    """

    def __init__(self, rec: Recorder, factors: dict[int, float]):
        self.traced_ops = len(factors)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.root_ns = 0.0
        n = len(rec.start)
        child_ns = [0] * n
        for i in range(n):
            parent = rec.parent[i]
            duration = rec.end[i] - rec.start[i]
            if parent >= 0:
                child_ns[parent] += duration
            elif rec.op[i] in factors:
                self.root_ns += duration * factors[rec.op[i]]
        for i in range(n):
            factor = factors.get(rec.op[i])
            if factor is None:
                continue
            name = rec.names[rec.name[i]]
            self.calls[name] += 1
            self.self_ns[name] += (rec.end[i] - rec.start[i] - child_ns[i]) * factor
            self.bytes[name] += rec.nbytes[i]

    def per_op(self, value: float) -> float:
        return value / self.traced_ops

    def ms_per_op(self, name: str) -> float:
        return self.per_op(self.self_ns.get(name, 0) / 1e6)

    def calls_per_op(self, name: str) -> float:
        return self.per_op(self.calls.get(name, 0))

    def bytes_per_op(self, name: str) -> float:
        return self.per_op(self.bytes.get(name, 0))

    def layer_ms_per_op(self, layer: str) -> float:
        total = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)
        return self.per_op(total / 1e6)

    def table(self) -> list[str]:
        lines = [f"{'span':40} {'calls/op':>10} {'self ms/op':>12} {'bytes/op':>12}"]
        for name in sorted(self.calls):
            lines.append(
                f"{name:40} {self.calls_per_op(name):10.3f} "
                f"{self.ms_per_op(name):12.5f} {self.bytes_per_op(name):12.1f}"
            )
        return lines


def write_child_spans(rec: Recorder, path: str | os.PathLike) -> None:
    Path(path).write_text(json.dumps(rec.rows()))

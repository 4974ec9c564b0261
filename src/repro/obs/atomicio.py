"""Atomic, checksummed file persistence — the durable state plane.

Every on-disk artifact this library produces (the :class:`~repro.obs.ledger.
RunLedger` JSONL, the job journal, trace exports, flight dumps, valuation
checkpoints) may be read while a writer is mid-flight and must survive the
writer being killed at any instant. This module is the single place those
guarantees are implemented, in three layers:

**Atomicity** — two write paths, one per artifact shape. Whole-file
snapshots (checkpoints, journal compaction, trace exports, flight dumps)
use the classic ``write temp + fsync + rename`` protocol
(:func:`atomic_writer`): content is staged in a temporary file *in the
target's directory* (same filesystem, so the rename is atomic), flushed
and fsync'd, then moved over the target with :func:`os.replace`, after
which the *parent directory* is fsync'd too — without the directory sync,
a power loss after the rename was acknowledged can resurrect the old file
from the directory's stale metadata. Readers see either the old file or
the new one, never a mixture; a writer killed at any point leaves the
target untouched.

Append-only logs (the run ledger, the job journal) are appended in place
(:func:`atomic_append_line`): under a cross-process ``fcntl`` advisory
lock (:func:`advisory_lock` on a ``<name>.lock`` sidecar) the line is
written to an ``O_APPEND`` descriptor and fsync'd, so an append costs
O(line), not O(log), and concurrent writers serialize instead of
interleaving. No staging copy is needed because the CRC framing below
already makes a torn line harmless: a writer killed mid-line leaves an
unterminated tail, which the next append terminates with a newline so it
becomes exactly one quarantinable record. On platforms without ``fcntl``
(Windows) the lock degrades to a no-op.

**Integrity** — per-record CRC32 framing (:func:`frame_line` /
:func:`unframe`). Each JSONL record is wrapped in a one-line envelope::

    {"_env": 2, "crc": "1c291ca3", "data": {...original record...}}

The CRC is computed over the canonical JSON serialisation of ``data``
(sorted keys, compact separators), which survives a parse/re-serialise
round trip bit-exactly, so readers re-derive it from the parsed payload
alone. The envelope is still one JSON object per line — ``jq .data`` and
every other line-oriented tool keep working — and v1 (un-framed) records
load unchanged through :func:`unframe`'s pass-through, so old artifacts
stay readable forever.

**Recovery** — :func:`read_jsonl`, the validating loader every artifact
reader goes through. A record that fails to parse, fails its CRC, or is
not a JSON object is *quarantined*: the raw line is copied (deduplicated
by content CRC) into a ``<file>.corrupt`` sidecar next to the source,
``storage.*`` metrics are bumped, the event is flight-recorded, and a
severity-ranked :class:`~repro.obs.diff.Alert` is attached to the returned
:class:`LoadReport` — corruption is loud and accounted for, never a silent
``continue``. The surviving records still load. An unterminated last line
may be an append still in flight (a write that crosses a page is not
atomic to readers), so the loader re-reads it under the writer's lock
before judging it torn.

Every write path funnels through :class:`IOHooks` call points
(:func:`install_io_hooks`), which is how :class:`repro.errors.chaos.
DiskChaos` injects storage faults — short and torn writes, ENOSPC, EIO on
fsync, lying fsync, crash before/after publication — for the
crash-consistency harness (``tools/crashconsist.py``). Hooks are ``None``
in production: the fault surface costs one ``is None`` check per commit.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

try:  # POSIX only; Windows degrades to unlocked single-writer behavior.
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - exercised only on Windows
    _fcntl = None

__all__ = [
    "ENVELOPE_SCHEMA_VERSION",
    "IOHooks",
    "LoadReport",
    "SimulatedCrash",
    "advisory_lock",
    "atomic_writer",
    "atomic_write_text",
    "atomic_append_line",
    "canonical_json",
    "crc32_hex",
    "frame_line",
    "fsync_dir",
    "install_io_hooks",
    "io_hooks",
    "quarantine_file",
    "quarantine_path_for",
    "read_export",
    "read_jsonl",
    "record_storage_alert",
    "storage_alerts",
    "unframe",
    "write_export",
]

#: Version of the per-record envelope. v1 is "no envelope" (bare payload
#: per line); v2 wraps each payload as ``{"_env": 2, "crc": ..., "data":
#: ...}``. Readers accept both forever — the envelope only *adds* the
#: ability to detect corruption, it never gates loading.
ENVELOPE_SCHEMA_VERSION = 2

#: Maximum corrupt-record alerts retained process-wide (ring semantics).
_MAX_STORAGE_ALERTS = 256


class SimulatedCrash(BaseException):
    """An injected process death at an exact fault point.

    Derives from ``BaseException`` so production ``except Exception``
    handlers cannot absorb it — in-process chaos tests observe the same
    post-crash file state a real ``kill -9`` would leave (modulo the
    orphaned staging file, which loaders never see anyway). Subprocess
    harnesses use ``crash_mode="exit"`` (``os._exit``) instead.
    """


# ---------------------------------------------------------------------- #
# fault-injection hooks                                                  #
# ---------------------------------------------------------------------- #
class IOHooks:
    """Injection points for storage faults; every method is a no-op here.

    :func:`atomic_writer` calls, in commit order:

    1. :meth:`on_commit` — after the body wrote the staged content, before
       flush/fsync. May truncate the staged file (a short write) or raise
       ``OSError`` (ENOSPC).
    2. :meth:`on_fsync` — immediately before ``os.fsync`` of the staged
       file. May raise ``OSError`` (EIO) or return ``False`` to *skip* the
       real fsync (a lying disk).
    3. :meth:`on_replace` — around ``os.replace``, with ``when`` equal to
       ``"before"`` or ``"after"``. May crash the process.
    4. :meth:`on_dirsync` — before the parent-directory fsync; return
       ``False`` to skip it (the lying disk again).

    :func:`atomic_append_line` calls, in append order:

    1. :meth:`on_append` with ``when="before"`` — before the line is
       written; returns the bytes to write. May return a prefix (a short
       or torn write), raise ``OSError`` (ENOSPC), or crash the process.
    2. :meth:`on_fsync` — immediately before ``os.fsync`` of the log, as
       above.
    3. :meth:`on_append` with ``when="after"`` — after the fsync, before
       the append returns. May crash the process.
    4. :meth:`on_dirsync` — only when the append created the file.
    """

    def on_commit(self, path: Path, handle: TextIO) -> None:
        return None

    def on_fsync(self, path: Path, fileno: int) -> bool:
        return True

    def on_replace(self, tmp: str, path: Path, when: str) -> None:
        return None

    def on_append(self, path: Path, data: bytes, when: str) -> bytes:
        return data

    def on_dirsync(self, dirpath: Path) -> bool:
        return True


_IO_HOOKS: IOHooks | None = None


def install_io_hooks(hooks: IOHooks | None) -> IOHooks | None:
    """Install (or with ``None`` clear) the process-wide IO fault hooks.

    Returns the previously installed hooks so callers can restore them.
    Prefer the :func:`io_hooks` context manager in tests.
    """
    global _IO_HOOKS
    previous = _IO_HOOKS
    _IO_HOOKS = hooks
    return previous


@contextmanager
def io_hooks(hooks: IOHooks) -> Iterator[IOHooks]:
    """Scoped :func:`install_io_hooks`: restores the previous hooks on exit."""
    previous = install_io_hooks(hooks)
    try:
        yield hooks
    finally:
        install_io_hooks(previous)


def fsync_dir(dirpath: Any) -> bool:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic against *readers*; making it
    durable against *power loss* additionally requires flushing the parent
    directory's metadata, or the old file can come back after the new one
    was acknowledged. Returns False on platforms/filesystems where
    directories cannot be opened or fsync'd (best-effort by design).
    """
    hooks = _IO_HOOKS
    if hooks is not None and not hooks.on_dirsync(Path(dirpath)):
        return False
    try:
        fd = os.open(os.fspath(dirpath), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:  # pragma: no cover - directory fsync unsupported
        return False
    finally:
        os.close(fd)


# ---------------------------------------------------------------------- #
# cross-process advisory locking                                         #
# ---------------------------------------------------------------------- #
#: Lock sidecars the current thread holds. A nested :func:`advisory_lock`
#: on one of them re-enters instead of blocking on its own ``flock``.
_HELD_LOCKS = threading.local()


def _lock_path(path: Path) -> Path:
    return path.with_name(path.name + ".lock")


@contextmanager
def advisory_lock(path: Any) -> Iterator[bool]:
    """Hold an exclusive cross-process advisory lock scoped to ``path``.

    The lock lives on a ``<name>.lock`` sidecar file (never on the target
    itself — snapshots replace the target by rename, which would orphan a
    lock held on its inode). Yields True while the lock is held, or False
    when ``fcntl`` is unavailable and the caller proceeds unlocked. The
    lock is reentrant within a thread — a holder can append or load under
    it (:meth:`repro.service.JobJournal.compact` does both) — and
    exclusive across threads and processes.
    """
    if _fcntl is None:
        yield False
        return
    path = Path(path)
    lock_path = _lock_path(path)
    key = os.path.abspath(lock_path)
    held = _HELD_LOCKS.__dict__.setdefault("paths", set())
    if key in held:
        yield True
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "a", encoding="utf-8") as handle:
        _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX)
        held.add(key)
        try:
            yield True
        finally:
            held.discard(key)
            _fcntl.flock(handle.fileno(), _fcntl.LOCK_UN)


# ---------------------------------------------------------------------- #
# atomic write protocol                                                  #
# ---------------------------------------------------------------------- #
@contextmanager
def atomic_writer(path: Any, encoding: str = "utf-8") -> Iterator[TextIO]:
    """Context manager yielding a text handle whose contents replace ``path``
    atomically *and durably* on clean exit.

    The commit sequence is stage → fsync(file) → rename → fsync(directory);
    a crash at any point leaves either the old target or the complete new
    one, and once the context exits the new content survives power loss.
    On an exception inside the body, the staging file is removed and the
    target is left exactly as it was — a crashed writer is invisible.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        hooks = _IO_HOOKS
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            yield handle
            if hooks is not None:
                hooks.on_commit(path, handle)
            handle.flush()
            if hooks is None or hooks.on_fsync(path, handle.fileno()):
                os.fsync(handle.fileno())
        if hooks is not None:
            hooks.on_replace(tmp_name, path, "before")
        os.replace(tmp_name, path)
        if hooks is not None:
            hooks.on_replace(tmp_name, path, "after")
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Any, text: str, encoding: str = "utf-8") -> None:
    """Replace ``path``'s contents with ``text`` atomically and durably."""
    with atomic_writer(path, encoding=encoding) as handle:
        handle.write(text)


def atomic_append_line(path: Any, line: str, encoding: str = "utf-8") -> None:
    """Durably append one line to ``path`` in place, under its advisory lock.

    Holding :func:`advisory_lock`, the append opens the log ``O_RDWR |
    O_APPEND`` and probes its last byte: a tail without a newline is a
    dead writer's torn line, so a newline goes first and the torn bytes
    become one record the validating loader quarantines. The line (a
    trailing newline is added if missing) is then written, looping over
    short ``os.write`` returns, and fsync'd; the parent directory is
    fsync'd only when this append created the file, so an acknowledged
    append survives power loss. If anything raises before the fsync
    returns, the file is truncated back to its size before the append, so
    an append that raised leaves nothing behind. The cost is O(line), not
    O(log).

    A concurrent reader can see the line half written — a write that
    crosses a page is not atomic to readers — which is why
    :func:`read_jsonl` waits on the same lock before it calls an
    unterminated last line torn.
    """
    path = Path(path)
    data = line.encode(encoding)
    if not data.endswith(b"\n"):
        data += b"\n"
    hooks = _IO_HOOKS
    flags = os.O_RDWR | os.O_APPEND | getattr(os, "O_BINARY", 0)
    with advisory_lock(path):
        try:
            fd = os.open(path, flags)
            created = False
        except FileNotFoundError:
            fd = os.open(path, flags | os.O_CREAT, 0o666)
            created = True
        try:
            size = os.fstat(fd).st_size
            try:
                torn = False
                if size:
                    os.lseek(fd, size - 1, os.SEEK_SET)
                    torn = os.read(fd, 1) != b"\n"
                out = data if hooks is None else hooks.on_append(
                    path, data, "before"
                )
                view = memoryview(b"\n" + out if torn else out)
                while view:
                    view = view[os.write(fd, view):]
                if hooks is None or hooks.on_fsync(path, fd):
                    os.fsync(fd)
            except SimulatedCrash:
                raise  # a simulated death unwinds nothing, like a real one
            except BaseException:
                os.ftruncate(fd, size)
                raise
            if hooks is not None:
                hooks.on_append(path, data, "after")
        finally:
            os.close(fd)
    if created:
        fsync_dir(path.parent)


# ---------------------------------------------------------------------- #
# CRC32 envelope framing                                                 #
# ---------------------------------------------------------------------- #
def crc32_hex(text: str) -> str:
    """CRC32 of ``text`` (UTF-8) as 8 lowercase hex digits."""
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def canonical_json(data: Any, default: Callable[[Any], Any] | None = None) -> str:
    """The canonical serialisation the record CRC is computed over.

    Sorted keys + compact separators make the text a pure function of the
    parsed value, and ``json.dumps(json.loads(text))`` reproduces ``text``
    bit-exactly (floats round-trip through ``repr``), so a reader can
    re-derive the writer's CRC from the parsed payload alone.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=default)


def frame_line(data: Any, default: Callable[[Any], Any] | None = None) -> str:
    """Wrap one record in the v2 checksummed envelope (one line, no ``\\n``).

    The envelope is assembled around the exact canonical text the CRC was
    computed over, so writer and reader can never disagree about what was
    checksummed. ``default`` is forwarded to ``json.dumps`` for payloads
    carrying non-JSON-native values (e.g. flight events use ``repr``).
    """
    payload = canonical_json(data, default=default)
    return (
        f'{{"_env":{ENVELOPE_SCHEMA_VERSION},"crc":"{crc32_hex(payload)}",'
        f'"data":{payload}}}'
    )


def unframe(obj: Any) -> tuple[Any, str | None]:
    """Unwrap one parsed record: ``(payload, error_reason)``.

    - v2 envelope with a valid CRC → ``(data, None)``;
    - v2 envelope failing its CRC or structurally broken →
      ``(None, "crc_mismatch" | "envelope_malformed")``;
    - anything else → ``(obj, None)`` — the v1 pass-through that keeps
      un-framed artifacts loading forever.
    """
    if isinstance(obj, Mapping) and "_env" in obj:
        if "crc" not in obj or "data" not in obj:
            return None, "envelope_malformed"
        data = obj["data"]
        if crc32_hex(canonical_json(data)) != obj["crc"]:
            return None, "crc_mismatch"
        return data, None
    return obj, None


# ---------------------------------------------------------------------- #
# validating loader with quarantine                                      #
# ---------------------------------------------------------------------- #
@dataclass
class LoadReport:
    """Accounting for one :func:`read_jsonl` pass over an artifact."""

    path: str
    artifact: str
    n_loaded: int = 0
    n_quarantined: int = 0
    #: Quarantined records *new to this load* (not already in the sidecar);
    #: metrics and alerts count these, so re-loading a damaged file does
    #: not re-alert for the same bytes.
    n_quarantined_new: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    alerts: list[Any] = field(default_factory=list)
    quarantine_path: str | None = None

    @property
    def clean(self) -> bool:
        return self.n_quarantined == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "artifact": self.artifact,
            "n_loaded": self.n_loaded,
            "n_quarantined": self.n_quarantined,
            "n_quarantined_new": self.n_quarantined_new,
            "reasons": dict(self.reasons),
            "quarantine_path": self.quarantine_path,
            "alerts": [
                a.to_dict() if hasattr(a, "to_dict") else a for a in self.alerts
            ],
        }


#: Process-wide ring of storage-corruption alerts, newest last. Surfaced
#: so a service can answer "has any artifact rotted?" without holding on
#: to every LoadReport.
_STORAGE_ALERTS: list[Any] = []


def storage_alerts(clear: bool = False) -> list[Any]:
    """Storage-corruption alerts accumulated this process (newest last)."""
    out = list(_STORAGE_ALERTS)
    if clear:
        _STORAGE_ALERTS.clear()
    return out


def quarantine_path_for(path: Any) -> Path:
    """The ``<file>.corrupt`` sidecar a damaged record is quarantined to."""
    path = Path(path)
    return path.with_name(path.name + ".corrupt")


def record_storage_alert(alert: Any) -> None:
    """Add one alert to the process-wide storage-corruption ring."""
    _STORAGE_ALERTS.append(alert)
    del _STORAGE_ALERTS[:-_MAX_STORAGE_ALERTS]


def quarantine_file(path: Any, artifact: str, reason: str) -> LoadReport:
    """Quarantine an entire damaged single-document artifact.

    Whole-file counterpart of the per-line quarantine inside
    :func:`read_jsonl`, used for artifacts that are one JSON document (a
    valuation checkpoint) rather than JSONL: the full body is copied into
    the ``<path>.corrupt`` sidecar as one ``quarantined_record`` (same
    dedup, metrics, flight-recording, and alerting). The source file is
    left in place — recovery (e.g. a checkpoint's fallback to its other
    slot) decides what replaces it.
    """
    path = Path(path)
    report = LoadReport(path=str(path), artifact=artifact)
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        raw = ""
    report.n_quarantined = 1
    report.reasons[reason] = 1
    _emit_quarantine(path, artifact, [(0, raw.rstrip("\n"), reason)], report)
    return report


def _make_alert(severity: str, artifact: str, path: Path, n_bad: int,
                n_loaded: int, reasons: Mapping[str, int]) -> Any:
    # Imported lazily: diff sits above atomicio in the layer order.
    from .diff import Alert

    detail = ", ".join(f"{k}×{v}" for k, v in sorted(reasons.items()))
    return Alert(
        severity=severity,
        kind="storage_corruption",
        node=artifact,
        column=None,
        metric="storage.records_quarantined",
        value=float(n_bad),
        threshold=0.0,
        message=(
            f"{n_bad} corrupt record(s) quarantined from {path} "
            f"({detail}); {n_loaded} record(s) still loaded"
        ),
    )


def _emit_quarantine(
    path: Path,
    artifact: str,
    corrupt: list[tuple[int, str, str]],
    report: LoadReport,
) -> None:
    """Sidecar the corrupt lines, bump metrics, flight-record, alert.

    ``corrupt`` is ``[(line_no, raw_line, reason), ...]``. Sidecar records
    are themselves framed (the quarantine file is a first-class artifact)
    and deduplicated by the raw line's CRC + line number, so repeated loads
    of a damaged file account each bad record exactly once.
    """
    sidecar = quarantine_path_for(path)
    report.quarantine_path = str(sidecar)
    with advisory_lock(sidecar):
        seen: set[tuple[str, int]] = set()
        if sidecar.exists():
            with open(sidecar, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload, err = unframe(json.loads(line))
                    except json.JSONDecodeError:
                        continue
                    if err is None and isinstance(payload, Mapping):
                        seen.add(
                            (
                                str(payload.get("raw_crc", "")),
                                int(payload.get("line_no", -1)),
                            )
                        )
        fresh: list[str] = []
        now = time.time()
        for line_no, raw, reason in corrupt:
            key = (crc32_hex(raw), line_no)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(
                frame_line(
                    {
                        "kind": "quarantined_record",
                        "artifact": artifact,
                        "source": str(path),
                        "line_no": line_no,
                        "reason": reason,
                        "raw": raw,
                        "raw_crc": key[0],
                        "ts": now,
                    }
                )
            )
        if fresh:
            atomic_append_line(sidecar, "\n".join(fresh))
    report.n_quarantined_new = len(fresh)
    if not fresh:
        return
    # Error-path telemetry is unconditional: corruption must be visible
    # even in processes that never enabled tracing.
    from . import flight as _flight
    from . import metrics as _metrics

    _metrics.counter("storage.records_quarantined", artifact=artifact).inc(
        len(fresh)
    )
    _metrics.counter("storage.quarantined_bytes", artifact=artifact).inc(
        sum(len(raw) for _, raw, _ in corrupt)
    )
    _flight.record(
        "storage.quarantine",
        artifact=artifact,
        path=str(path),
        sidecar=str(sidecar),
        new_records=len(fresh),
        reasons=dict(report.reasons),
    )
    severity = "critical" if report.n_loaded == 0 else "warn"
    alert = _make_alert(
        severity, artifact, path, len(fresh), report.n_loaded, report.reasons
    )
    report.alerts.append(alert)
    _STORAGE_ALERTS.append(alert)
    del _STORAGE_ALERTS[:-_MAX_STORAGE_ALERTS]


def read_jsonl(
    path: Any,
    artifact: str | None = None,
    quarantine: bool = True,
    require_objects: bool = True,
) -> tuple[list[Any], LoadReport]:
    """Load a JSONL artifact, validating CRCs and quarantining damage.

    Returns ``(payloads, report)``. Framed (v2) records are CRC-verified
    and unwrapped; bare (v1) records pass through. A record that fails to
    parse, fails its CRC, or (with ``require_objects``) is not a JSON
    object is quarantined to ``<path>.corrupt`` — deduplicated, metered
    (``storage.*`` counters), flight-recorded, and surfaced as an
    :class:`~repro.obs.diff.Alert` on the report — and loading continues.
    Blank lines are ignored. A missing file is an empty, clean load.

    An unterminated last line of a log that :func:`atomic_append_line`
    writes (its ``.lock`` sidecar exists and this process may take it)
    may be an append in flight, so it is read again under that lock: a
    live append has finished by then and loads; a line still unterminated
    belongs to a dead writer and is quarantined.
    """
    path = Path(path)
    artifact = artifact or path.name
    report = LoadReport(path=str(path), artifact=artifact)
    try:
        data = path.read_bytes()
        if data and not data.endswith(b"\n") and os.access(
            _lock_path(path), os.W_OK
        ):
            with advisory_lock(path):
                data = path.read_bytes()
    except FileNotFoundError:
        return [], report
    payloads: list[Any] = []
    corrupt: list[tuple[int, str, str]] = []

    def bad(line_no: int, raw: str, reason: str) -> None:
        report.n_quarantined += 1
        report.reasons[reason] = report.reasons.get(reason, 0) + 1
        corrupt.append((line_no, raw, reason))

    with io.BytesIO(data) as handle:
        for line_no, line in enumerate(handle):
            raw = line.decode("utf-8", errors="replace").strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                bad(line_no, raw, "not_json")
                continue
            payload, err = unframe(obj)
            if err is not None:
                bad(line_no, raw, err)
                continue
            if require_objects and not isinstance(payload, Mapping):
                bad(line_no, raw, "not_object")
                continue
            payloads.append(payload)
            report.n_loaded += 1
    if corrupt and quarantine:
        _emit_quarantine(path, artifact, corrupt, report)
    return payloads, report


# ---------------------------------------------------------------------- #
# header-plus-records exports                                            #
# ---------------------------------------------------------------------- #
def write_export(
    path: Any,
    header: Mapping[str, Any],
    records: Iterable[Any],
    default: Callable[[Any], Any] | None = None,
) -> None:
    """Atomically write ``header`` then one line per record, every line
    CRC-framed (``default`` as in :func:`frame_line`).

    The format of every trace export, flight dump and saved trace report:
    staged and renamed into place, so readers never see a partial file,
    and read back by :func:`read_export`.
    """
    with atomic_writer(path) as handle:
        handle.write(frame_line(header, default=default) + "\n")
        for record in records:
            handle.write(frame_line(record, default=default) + "\n")


def read_export(
    path: Any, kind: str, artifact: str
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a :func:`write_export` file: ``(header, records)``.

    Goes through :func:`read_jsonl`, so damaged lines are quarantined and
    the rest still load, and un-framed files written before the exports
    were framed load unchanged. The header is the first record whose
    ``kind`` is ``kind``; a damaged or missing header yields ``{}``.
    """
    payloads, _ = read_jsonl(path, artifact=artifact)
    header: dict[str, Any] = {}
    records: list[dict[str, Any]] = []
    for payload in payloads:
        if not header and payload.get("kind") == kind:
            header = payload
        else:
            records.append(payload)
    return header, records

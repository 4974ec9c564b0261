"""Checkpoint/resume for valuation runs.

The Identify track's Monte-Carlo estimators are the most expensive jobs in
the toolkit — hours of model retrainings whose only output is a handful of
accumulator arrays. A preempted or killed run used to lose every
permutation already paid for. This module makes valuation state durable:

- :class:`CheckpointStore` persists a schema-versioned, CRC-framed JSON
  snapshot atomically (staged + fsync + rename + directory fsync, via
  :mod:`repro.obs.atomicio`), so a run killed *mid-write* leaves the
  previous snapshot intact and a resumed run never loads a torn file.
  Saves alternate between two slot files, so a store always holds its
  newest snapshot and the one before it. Loads verify both envelope
  checksums; a slot corrupted *after* the fact (bit rot, a partial
  restore) is quarantined to its ``<file>.corrupt`` sidecar and the other
  slot serves instead — resuming from an older watermark is always
  correct (merely slower) because the RNG position is fully captured by
  ``(seed, completed watermark)``.
- :func:`config_fingerprint` hashes everything that determines the
  sampling trajectory — game size, seed, target budget, position weights,
  truncation/convergence settings, antithetic pairing — and the store
  refuses to resume when the fingerprint disagrees
  (:class:`CheckpointMismatchError`): resuming a run under a different
  configuration would silently blend two different estimators.

The resume invariant, which the engine's tests enforce bit-for-bit: because
every permutation ordering is pre-drawn from the master
``np.random.default_rng(seed)`` stream, the *RNG position* of a run is
fully captured by ``(seed, completed-permutation watermark)``. A resumed
run re-draws the same orderings, restores the per-row sums / sums of
squares / evaluation census exactly (JSON round-trips IEEE-754 doubles
losslessly), skips the watermarked prefix, and accumulates the remaining
waves in the original order — producing values bit-identical to a run that
was never interrupted, for any worker count.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..obs.atomicio import (
    atomic_write_text,
    frame_line,
    quarantine_file,
    record_storage_alert,
    unframe,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "config_fingerprint",
]

#: Bump when the snapshot layout changes incompatibly. Loaders refuse to
#: resume from a different major version — unlike the lenient ledger
#: readers, a checkpoint read wrong silently corrupts results.
CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded (unreadable, wrong schema, ...)."""


class CheckpointMismatchError(CheckpointError):
    """Refusing to resume: the stored run had a different configuration."""


def _canonical(value: Any) -> Any:
    """JSON-stable form of a config value (arrays → hashed, tuples → lists)."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Deterministic hex digest of a run configuration."""
    payload = json.dumps(_canonical(dict(config)), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class CheckpointStore:
    """Atomic, schema-versioned snapshots of one valuation run, in two slots.

    Slot 0 is ``path`` itself and slot 1 its sibling ``<name>.prev``. Each
    :meth:`save` makes one atomic write, to the slot that does not hold the
    newest snapshot this store has loaded or written, so the store keeps
    exactly two snapshots: the newest and the one before it. The point is
    crash durability, not time travel. A snapshot is a single JSON
    document::

        {"schema_version": 1, "kind": "permutation", "fingerprint": "...",
         "completed": 40, "totals": [...], "sumsq": [...], ...}

    ``save`` goes through :func:`repro.obs.atomicio.atomic_write_text`;
    ``load`` validates the schema version and (when asked) the config
    fingerprint before handing state back. A store that has neither loaded
    nor saved removes slot 1 before its first write, so a snapshot an
    earlier run left there never outranks this run's first one.
    """

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        self._slots = (self.path, self.path.with_name(f"{self.path.name}.prev"))
        #: Slot holding the newest snapshot this store has loaded or
        #: written; ``None`` before either, and after :meth:`clear`.
        self._newest: int | None = None
        #: Accounting for the most recent :meth:`load` that had to recover
        #: (the quarantined slot, its error, the slot recovered from and
        #: its watermark); ``None`` when the last load was clean.
        self.last_recovery: dict[str, Any] | None = None

    def exists(self) -> bool:
        return any(slot.exists() for slot in self._slots)

    def save(self, state: Mapping[str, Any]) -> None:
        """Atomically write ``state`` to the slot not holding the newest
        snapshot, which stays behind as the fallback."""
        payload = {"schema_version": CHECKPOINT_SCHEMA_VERSION, **state}
        if self._newest is None:
            self._slots[1].unlink(missing_ok=True)
            target = 0
        else:
            target = 1 - self._newest
        atomic_write_text(self._slots[target], frame_line(payload) + "\n")
        self._newest = target

    def _read_snapshot(
        self, path: Path
    ) -> tuple[dict[str, Any] | None, str | None, str | None]:
        """Parse + CRC-verify one snapshot file.

        Returns ``(payload, error_message, reason_tag)`` — exactly one of
        ``payload`` / ``error_message`` is set. Never raises: callers
        decide whether an invalid snapshot is fatal (no valid slot left)
        or merely a reason to fall back to the other slot.
        """
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                obj = json.loads(handle.read())
        except OSError as exc:
            return None, f"unreadable checkpoint at {path}: {exc}", "unreadable"
        except json.JSONDecodeError as exc:
            return None, f"unreadable checkpoint at {path}: {exc}", "not_json"
        payload, err = unframe(obj)
        if err is not None:
            return None, f"unreadable checkpoint at {path}: {err}", err
        if not isinstance(payload, dict):
            return None, f"malformed checkpoint at {path}", "not_object"
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            return (
                None,
                f"checkpoint schema v{version} at {path} is not readable "
                f"by this runtime (expected v{CHECKPOINT_SCHEMA_VERSION})",
                "schema_mismatch",
            )
        return payload, None, None

    def load(self) -> dict[str, Any] | None:
        """The newest valid snapshot, or None when no checkpoint exists yet.

        Reads both slots and returns the valid one with the higher
        ``completed``. A slot that fails to parse, fails its CRC, or
        carries the wrong schema version is quarantined to its
        ``<slot>.corrupt`` sidecar. When the other slot is valid it serves
        as the fallback (see :attr:`last_recovery`) and the damaged slot is
        removed, so the next load is clean. When no slot is valid, both
        files stay in place and every load raises :class:`CheckpointError`.
        """
        self.last_recovery = None
        found: dict[int, dict[str, Any]] = {}
        damaged: list[tuple[Path, str]] = []
        for index, slot in enumerate(self._slots):
            if not slot.exists():
                continue
            payload, error, reason = self._read_snapshot(slot)
            if error is None:
                found[index] = payload
            else:
                quarantine_file(slot, artifact="checkpoint", reason=reason)
                damaged.append((slot, error))
        if damaged:
            slot, error = damaged[0]
            self.last_recovery = {
                "path": str(slot),
                "error": error,
                "recovered_from": None,
                "completed": None,
            }
            if not found:
                raise CheckpointError(error)
        if not found:
            return None
        newest = max(found, key=lambda i: (found[i].get("completed", 0), -i))
        self._newest = newest
        if damaged:
            # Its bytes are in the sidecar, and the other slot is valid.
            slot.unlink(missing_ok=True)
            self.last_recovery.update(
                recovered_from=self._slots[newest].name,
                completed=found[newest].get("completed"),
            )
            self._note_fallback(self.last_recovery)
        return found[newest]

    def _note_fallback(self, recovery: dict[str, Any]) -> None:
        # Lazy: keep checkpoint importable without dragging in the whole
        # observability stack at module load.
        from ..obs import flight as _flight
        from ..obs import metrics as _metrics
        from ..obs.diff import Alert

        _metrics.counter(
            "storage.checkpoint_fallback", artifact="checkpoint"
        ).inc()
        _flight.record("storage.checkpoint_fallback", **recovery)
        record_storage_alert(
            Alert(
                severity="warn",
                kind="storage_corruption",
                node="checkpoint",
                column=None,
                metric="storage.checkpoint_fallback",
                value=1.0,
                threshold=0.0,
                message=(
                    f"checkpoint slot {recovery['path']} was corrupt "
                    f"({recovery['error']}); resumed from slot "
                    f"{recovery['recovered_from']} at watermark "
                    f"{recovery['completed']}"
                ),
            )
        )

    def load_matching(
        self, kind: str, fingerprint: str
    ) -> dict[str, Any] | None:
        """Load and validate against the resuming run's identity.

        Returns None when no checkpoint exists; raises
        :class:`CheckpointMismatchError` when one exists but belongs to a
        different run kind or configuration.
        """
        payload = self.load()
        if payload is None:
            return None
        if payload.get("kind") != kind:
            raise CheckpointMismatchError(
                f"checkpoint at {self.path} is a {payload.get('kind')!r} "
                f"snapshot, not {kind!r}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint at {self.path} was written under a different "
                "run configuration (fingerprint mismatch); refusing to "
                "resume — delete the file or rerun with the original "
                "settings"
            )
        return payload

    def clear(self) -> None:
        """Remove both slots (e.g. after a run completes).

        A slot's ``.corrupt`` sidecar stays as evidence of the damage; the
        ``.corrupt.lock`` file that guarded its appends holds no data and
        goes with the slot.
        """
        for slot in self._slots:
            slot.unlink(missing_ok=True)
            slot.with_name(f"{slot.name}.corrupt.lock").unlink(missing_ok=True)
        self._newest = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "present" if self.exists() else "absent"
        return f"CheckpointStore({str(self.path)!r}, {state})"

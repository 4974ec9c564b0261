#!/usr/bin/env python
"""Crash-consistency harness: kill writers at every storage fault point.

The durability contract (DESIGN.md §16) makes four promises about the
state plane — and this harness is the executable proof. For each artifact
(run ledger, job journal, valuation checkpoint) it spawns a subprocess
writer with :class:`repro.errors.chaos.DiskChaos` installed in
``crash_mode="exit"`` and sweeps the injected fault across every write
ordinal and fault kind: the child hard-exits (``os._exit(71)``, no
unwinding — a ``kill -9`` at the exact instant before or after the write
is published: around the ``os.replace`` of a snapshot, before an in-place
append writes or after its fsync), dies halfway through an in-place
append (a torn append: a prefix of the line on disk, never acknowledged),
or suffers a short write (the disk persists less than it acknowledged).
The parent then verifies, per case:

1. **Loaders never raise.** Whatever the crash left behind, every
   validating loader returns records plus accounting — no exception.
2. **No acknowledged record is lost to a crash.** A writer that printed
   ``ACK i`` after its append returned must find record ``i`` after the
   kill — for *every* fault point. (Short writes are the exception by
   construction: storage acknowledged data it never persisted. Those
   records are *quarantined and counted*, never silently dropped.)
3. **Quarantine counts match injected faults.** Pure crashes leave zero
   torn records (atomicity); each short write or torn append leaves
   exactly one, and it lands in the ``.corrupt`` sidecar.
4. **Resumed valuations are bit-identical.** A valuation killed at any
   checkpoint-write fault point resumes from the newest snapshot it wrote
   whole — falling back to the other checkpoint slot when the newest
   snapshot was torn — and produces values ``np.array_equal`` to a run
   that was never interrupted. A fault in a store's first save that keeps
   it from publishing leaves no snapshot.

Run it standalone (CI's durability-smoke job does)::

    PYTHONPATH=src python tools/crashconsist.py --out benchmarks/results/crash_consistency.json

The audit JSON records every case (scenario, fault kind, op ordinal, what
fired, what was verified); a sample quarantine sidecar is copied next to
it as evidence. Exit code 0 iff every invariant held in every case.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.importance import CheckpointStore, SubsetUtility, ValuationEngine  # noqa: E402
from repro.obs.atomicio import quarantine_path_for, read_jsonl  # noqa: E402
from repro.obs.ledger import RunLedger  # noqa: E402
from repro.service import JobJournal  # noqa: E402

#: DiskChaos crash_mode="exit" hard-exit code — the parent's signal that
#: the injected fault actually fired (vs. the sweep running past the
#: writer's last commit ordinal).
CRASH_EXIT = 71

CRASH_KINDS = ("crash_before_rename", "crash_after_rename")

#: Faults that leave exactly one torn record behind.
TORN_KINDS = ("short_write", "torn_append")

#: Valuation run shape for the checkpoint scenario: 30 permutations in
#: waves of 5 → 6 checkpoint saves, one commit each (the slots alternate).
CK_PERMUTATIONS = 30
CK_SEED = 5
CK_CHECK_EVERY = 5
CK_SAVES = CK_PERMUTATIONS // CK_CHECK_EVERY

#: Commit ordinal of the *final* snapshot write (wave 6 of 6). A fault
#: here is the only one later waves cannot paper over, so the sweep always
#: includes it — it is the case that forces recovery to fall back to the
#: other slot, which holds wave 5.
CK_FINAL_PRIMARY_OP = 5

# Child writer scripts. The fault spec rides argv (argv[1]=kind,
# argv[2]=op ordinal, argv[3]=target path); repro is importable because
# the parent exports PYTHONPATH=src.
_CHILD_PRELUDE = """
import sys
from repro.errors.chaos import DiskChaos
from repro.obs.atomicio import install_io_hooks
install_io_hooks(
    DiskChaos(fault_at={int(sys.argv[2]): sys.argv[1]}, crash_mode="exit")
)
"""

LEDGER_CHILD = _CHILD_PRELUDE + """
from repro.obs.ledger import RunLedger
ledger = RunLedger(sys.argv[3])
for i in range(int(sys.argv[4])):
    ledger.record_event("valuation", config={"i": i}, run_id=f"run-{i}")
    print(f"ACK {i}", flush=True)
"""

JOURNAL_CHILD = _CHILD_PRELUDE + """
from repro.service import JobJournal
journal = JobJournal(sys.argv[3])
for i in range(int(sys.argv[4])):
    journal.record(
        "submitted", f"job-{i}", {"request": {"kind": "valuation"}}
    )
    print(f"ACK {i}", flush=True)
"""

CHECKPOINT_CHILD = _CHILD_PRELUDE + """
import numpy as np
from repro.importance import CheckpointStore, SubsetUtility, ValuationEngine

rng = np.random.default_rng(3)
w = rng.normal(size=10)

def func(indices):
    idx = np.asarray(indices, dtype=int)
    return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

engine = ValuationEngine(
    SubsetUtility(func, 10),
    checkpoint=CheckpointStore(sys.argv[3]),
    resume=True,
)
engine.run_permutations(
    int(sys.argv[4]), seed=int(sys.argv[5]), check_every=int(sys.argv[6])
)
print("DONE", flush=True)
"""


def _game(n: int = 10, seed: int = 3) -> SubsetUtility:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


def _run_child(script: str, *args) -> tuple[int, list[int]]:
    """Run one writer subprocess; return (exit_code, acked_ordinals)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script),
         *[str(a) for a in args]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    acked = [
        int(line.split()[1])
        for line in proc.stdout.splitlines()
        if line.startswith("ACK ")
    ]
    return proc.returncode, acked


def _case(scenario: str, kind: str, op: int, fired: bool, **extra) -> dict:
    return {
        "scenario": scenario,
        "fault_kind": kind,
        "op_ordinal": op,
        "fault_fired": fired,
        **extra,
    }


def sweep_append_log(
    scenario: str,
    child: str,
    load,
    workdir: Path,
    n_records: int = 6,
    ops: range | list | None = None,
    kinds: tuple = CRASH_KINDS + TORN_KINDS,
) -> list[dict]:
    """Sweep fault points over an append-only JSONL writer (ledger/journal).

    ``load(path)`` must return ``(present_ordinals, LoadReport)`` without
    raising — invariant 1 is implicitly asserted by calling it on every
    post-crash state.
    """
    cases = []
    ops = list(ops if ops is not None else range(n_records))
    for kind in kinds:
        for op in ops:
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                path = Path(tmp) / f"{scenario}.jsonl"
                code, acked = _run_child(
                    child, kind, op, path, n_records
                )
                fired = (
                    op < n_records
                    if kind == "short_write"
                    else code == CRASH_EXIT
                )
                present, report = load(path)
                failures = []
                if code not in (0, CRASH_EXIT):
                    failures.append(f"writer died unexpectedly (exit {code})")
                # A short write is acknowledged yet torn by construction:
                # its record is quarantined, every other acked one stays.
                torn_acked = op if kind == "short_write" else None
                lost = [
                    i for i in acked if i not in present and i != torn_acked
                ]
                if lost:
                    failures.append(f"acked records lost: {lost}")
                if kind == "torn_append" and op in acked:
                    failures.append("torn append was acknowledged")
                expected_q = 1 if fired and kind in TORN_KINDS else 0
                if report.n_quarantined != expected_q:
                    failures.append(
                        f"expected {expected_q} quarantined, got "
                        f"{report.n_quarantined}"
                    )
                if expected_q and not quarantine_path_for(path).exists():
                    failures.append(f"no .corrupt sidecar for {kind}")
                cases.append(
                    _case(
                        scenario, kind, op, fired,
                        exit_code=code,
                        n_acked=len(acked),
                        n_loaded=report.n_loaded,
                        n_quarantined=report.n_quarantined,
                        failures=failures,
                    )
                )
    return cases


def _load_ledger(path: Path):
    ledger = RunLedger(path)
    records = ledger.load()
    return [r.config.get("i") for r in records], ledger.last_load_report


def _load_journal(path: Path):
    journal = JobJournal(path)
    events = journal.events()
    present = [
        int(e["job_id"].split("-", 1)[1])
        for e in events
        if e.get("event") == "submitted"
    ]
    journal.replay()  # must also never raise
    return present, journal.last_load_report


def expected_watermark(kind: str, op: int) -> int:
    """Where a valuation faulted at checkpoint save ``op`` must resume: the
    newest snapshot it wrote whole. A writer that dies before publishing
    save ``op`` (or mid-write) resumes from the save before; one that
    dies just after, from save ``op``. A short write is acknowledged and
    the writer runs on, so a later save overwrites the torn slot, except
    after the final save, which falls back to the one before it."""
    if op >= CK_SAVES:
        return CK_PERMUTATIONS  # the fault never fired
    if kind in ("crash_before_rename", "torn_append"):
        return CK_CHECK_EVERY * op
    if kind == "crash_after_rename":
        return CK_CHECK_EVERY * (op + 1)
    return CK_PERMUTATIONS - CK_CHECK_EVERY * (op == CK_SAVES - 1)


def sweep_checkpoint(
    workdir: Path,
    ops: range | list | None = None,
    kinds: tuple = CRASH_KINDS + TORN_KINDS,
) -> list[dict]:
    """Kill a valuation mid-checkpoint-write at each fault point; verify
    the resumed run starts from the newest snapshot written whole and is
    bit-identical to an uninterrupted reference."""
    reference = ValuationEngine(_game()).run_permutations(
        CK_PERMUTATIONS, seed=CK_SEED, check_every=CK_CHECK_EVERY
    )
    cases = []
    # 6 waves x 1 slot write = 6 commits; sweep a prefix, plus always the
    # final write — the one fault later waves cannot overwrite, so a torn
    # final snapshot exercises the fallback to the other slot.
    ops = sorted(
        set(ops if ops is not None else range(6)) | {CK_FINAL_PRIMARY_OP}
    )
    for kind in kinds:
        for op in ops:
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                ck = Path(tmp) / "ck.json"
                code, _ = _run_child(
                    CHECKPOINT_CHILD, kind, op, ck,
                    CK_PERMUTATIONS, CK_SEED, CK_CHECK_EVERY,
                )
                fired = code == CRASH_EXIT if kind != "short_write" else True
                failures = []
                if code not in (0, CRASH_EXIT):
                    failures.append(f"writer died unexpectedly (exit {code})")
                unpublished = kind in ("crash_before_rename", "torn_append")
                if op == 0 and unpublished and CheckpointStore(ck).exists():
                    failures.append("a fault in the first save left a snapshot")
                store = CheckpointStore(ck)
                try:
                    store.load()  # invariant 1: loaders never raise...
                except Exception as exc:  # noqa: BLE001
                    # ...unless nothing valid was ever written (crash at
                    # the very first commit) — then None/raise is allowed
                    # only when no snapshot file exists at all.
                    if store.exists():
                        failures.append(f"checkpoint load raised: {exc}")
                resume_store = CheckpointStore(ck)
                resumed = ValuationEngine(
                    _game(), checkpoint=resume_store, resume=True
                ).run_permutations(
                    CK_PERMUTATIONS, seed=CK_SEED, check_every=CK_CHECK_EVERY
                )
                if not np.array_equal(resumed.values(), reference.values()):
                    failures.append(
                        "resumed values differ from uninterrupted reference"
                    )
                watermark = expected_watermark(kind, op)
                if int(resumed.resumed_from or 0) != watermark:
                    failures.append(
                        f"resumed from {resumed.resumed_from}, not from the "
                        f"newest snapshot written whole ({watermark})"
                    )
                recovery = store.last_recovery or resume_store.last_recovery
                cases.append(
                    _case(
                        "checkpoint", kind, op, fired,
                        exit_code=code,
                        resumed_from=int(resumed.resumed_from or 0),
                        fallback=recovery is not None,
                        failures=failures,
                    )
                )
    return cases


def find_sample_sidecar(workdir: Path) -> Path | None:
    """Produce one representative ``.corrupt`` sidecar for the audit."""
    sample_dir = workdir / "sample"
    path = sample_dir / "sample.jsonl"
    from repro.obs.atomicio import atomic_append_line, frame_line

    atomic_append_line(path, frame_line({"i": 0}))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn example":  \n')
    read_jsonl(path, artifact="sample")
    sidecar = quarantine_path_for(path)
    return sidecar if sidecar.exists() else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the audit JSON (plus a sample .corrupt "
                             "sidecar) to this path")
    parser.add_argument("--scenarios", default="ledger,journal,checkpoint")
    parser.add_argument("--max-ops", type=int, default=6,
                        help="sweep fault ordinals 0..max-ops-1 per kind")
    args = parser.parse_args(argv)

    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    started = time.time()
    cases: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="crashconsist-") as tmp:
        workdir = Path(tmp)
        if "ledger" in scenarios:
            print(f"[crashconsist] sweeping ledger faults (ops 0..{args.max_ops - 1})")
            cases += sweep_append_log(
                "ledger", LEDGER_CHILD, _load_ledger, workdir,
                ops=range(args.max_ops),
            )
        if "journal" in scenarios:
            print(f"[crashconsist] sweeping journal faults (ops 0..{args.max_ops - 1})")
            cases += sweep_append_log(
                "journal", JOURNAL_CHILD, _load_journal, workdir,
                ops=range(args.max_ops),
            )
        if "checkpoint" in scenarios:
            print(f"[crashconsist] sweeping checkpoint faults (ops 0..{args.max_ops - 1})")
            cases += sweep_checkpoint(workdir, ops=range(args.max_ops))
        sidecar = find_sample_sidecar(workdir)
        sidecar_text = (
            sidecar.read_text(encoding="utf-8") if sidecar else None
        )

    failures = [c for c in cases if c["failures"]]
    audit = {
        "harness": "crashconsist",
        "elapsed_s": round(time.time() - started, 2),
        "n_cases": len(cases),
        "n_fired": sum(1 for c in cases if c["fault_fired"]),
        "n_failures": len(failures),
        "invariants": [
            "loaders never raise",
            "no acknowledged record lost to a crash",
            "quarantine counts match injected faults",
            "resumed valuations bit-identical",
        ],
        "cases": cases,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(audit, indent=2) + "\n")
        if sidecar_text is not None:
            sample = args.out.with_name("sample.jsonl.corrupt")
            sample.write_text(sidecar_text)
            print(f"[crashconsist] sample sidecar -> {sample}")
        print(f"[crashconsist] audit -> {args.out}")

    print(
        f"[crashconsist] {audit['n_cases']} cases, "
        f"{audit['n_fired']} faults fired, "
        f"{audit['n_failures']} invariant violations "
        f"in {audit['elapsed_s']}s"
    )
    for case in failures:
        print(f"  FAIL {case['scenario']}/{case['fault_kind']}"
              f"@{case['op_ordinal']}: {case['failures']}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

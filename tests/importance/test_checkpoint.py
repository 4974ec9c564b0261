"""Checkpoint/resume and budget degradation for valuation runs.

The headline contract: a valuation run killed at any point (including
``kill -9`` of the whole driver process) resumes from its last wave-boundary
snapshot and produces values bit-identical to a run that was never
interrupted — for any worker count — and refuses to resume under a changed
configuration. Budget knobs (``deadline_s``/``max_evals``) degrade to
partial results instead of raising.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.importance import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    SubsetUtility,
    ValuationEngine,
    banzhaf_mc,
    config_fingerprint,
    shapley_mc,
)
from repro.importance.checkpoint import CHECKPOINT_SCHEMA_VERSION
from repro.obs.atomicio import IOHooks, io_hooks, unframe


def saturating_game(n: int = 10, seed: int = 3) -> SubsetUtility:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


# ---------------------------------------------------------------------- #
# store round-trips                                                      #
# ---------------------------------------------------------------------- #

finite_floats = st.floats(allow_nan=False, width=64)
state_values = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    finite_floats,
    st.text(max_size=20),
    st.booleans(),
    st.none(),
    st.lists(finite_floats, max_size=8),
)


class TestCheckpointStore:
    @settings(max_examples=50, deadline=None)
    @given(
        state=st.dictionaries(
            st.text(min_size=1, max_size=12).filter(
                lambda k: k != "schema_version"
            ),
            state_values,
            max_size=6,
        )
    )
    def test_save_load_round_trip_is_exact(self, tmp_path_factory, state):
        path = tmp_path_factory.mktemp("ck") / "snapshot.json"
        store = CheckpointStore(path)
        store.save(state)
        loaded = store.load()
        assert loaded.pop("schema_version") == CHECKPOINT_SCHEMA_VERSION
        assert loaded == state  # IEEE-754 doubles round-trip JSON exactly

    def test_float_accumulators_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        totals = rng.normal(size=64) * 1e-12
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"totals": totals.tolist()})
        restored = np.asarray(store.load()["totals"])
        assert np.array_equal(restored, totals)

    def test_missing_file_loads_as_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "absent.json")
        assert store.load() is None
        assert store.load_matching("permutation", "abc") is None
        assert not store.exists()

    def test_malformed_and_wrong_schema_raise(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore(path).load()
        path.write_text(json.dumps({"schema_version": 999, "kind": "permutation"}))
        with pytest.raises(CheckpointError, match="schema"):
            CheckpointStore(path).load()

    def test_kind_and_fingerprint_mismatch_refuse(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"kind": "permutation", "fingerprint": "aaa"})
        with pytest.raises(CheckpointMismatchError, match="snapshot"):
            store.load_matching("subset", "aaa")
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            store.load_matching("permutation", "bbb")

    def test_clear_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"kind": "x"})
        store.clear()
        store.clear()
        assert store.load() is None


class TestConfigFingerprint:
    def test_key_order_does_not_matter(self):
        a = config_fingerprint({"seed": 1, "n": 10})
        b = config_fingerprint({"n": 10, "seed": 1})
        assert a == b

    def test_arrays_and_scalars_hash_stably(self):
        weights = np.linspace(0, 1, 5)
        a = config_fingerprint({"weights": weights, "n": np.int64(3)})
        b = config_fingerprint({"weights": weights.copy(), "n": 3})
        assert a == b
        c = config_fingerprint({"weights": weights * 2, "n": 3})
        assert a != c


# ---------------------------------------------------------------------- #
# engine resume fidelity                                                 #
# ---------------------------------------------------------------------- #


class TestEngineResume:
    def test_budget_stop_then_resume_is_bit_identical(self, tmp_path):
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            30, seed=5
        )
        ck = tmp_path / "ck.json"
        partial = ValuationEngine(
            saturating_game(), checkpoint=ck
        ).run_permutations(30, seed=5, max_evals=60)
        assert partial.stop_reason == "eval_budget"
        assert not partial.converged
        assert 0 < partial.n_permutations < 30
        resumed = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True
        ).run_permutations(30, seed=5)
        assert resumed.resumed_from == partial.n_permutations
        assert resumed.stop_reason == "completed"
        assert np.array_equal(resumed.values(), uninterrupted.values())
        assert np.array_equal(resumed.stderr(), uninterrupted.stderr())

    def test_resume_is_worker_count_invariant(self, tmp_path):
        if __import__("repro.importance.engine", fromlist=["_FORK_CTX"])._FORK_CTX is None:
            pytest.skip("requires a fork-capable platform")
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            24, seed=8
        )
        ck = tmp_path / "ck.json"
        ValuationEngine(saturating_game(), checkpoint=ck).run_permutations(
            24, seed=8, max_evals=50
        )
        resumed = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True, n_workers=3
        ).run_permutations(24, seed=8)
        assert np.array_equal(resumed.values(), uninterrupted.values())

    def test_resume_with_different_config_refuses(self, tmp_path):
        ck = tmp_path / "ck.json"
        ValuationEngine(saturating_game(), checkpoint=ck).run_permutations(
            20, seed=5, max_evals=40
        )
        with pytest.raises(CheckpointMismatchError):
            ValuationEngine(
                saturating_game(), checkpoint=ck, resume=True
            ).run_permutations(20, seed=6)

    def test_budget_knobs_are_not_part_of_the_fingerprint(self, tmp_path):
        """Resuming a budget-stopped run with a *larger* budget is the
        intended workflow and must not trip the fingerprint check."""
        ck = tmp_path / "ck.json"
        ValuationEngine(saturating_game(), checkpoint=ck).run_permutations(
            20, seed=5, max_evals=40
        )
        resumed = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True
        ).run_permutations(20, seed=5, max_evals=10_000)
        assert resumed.stop_reason == "completed"

    def test_finished_run_resumes_without_reevaluating(self, tmp_path):
        ck = tmp_path / "ck.json"
        first = ValuationEngine(saturating_game(), checkpoint=ck).run_permutations(
            15, seed=4
        )
        game = saturating_game()
        engine = ValuationEngine(game, checkpoint=ck, resume=True)
        again = engine.run_permutations(15, seed=4)
        assert game.n_evaluations == 0
        assert np.array_equal(again.values(), first.values())

    def test_budget_spent_in_the_last_wave_still_completes(self, tmp_path):
        """Budgets are checked before a wave starts: a run whose budget is
        exactly what the whole run costs scans every permutation, so it
        completed — in the result, in the snapshot, and on resume."""
        full = ValuationEngine(saturating_game(8)).run_permutations(
            20, seed=5, check_every=5
        )
        ck = tmp_path / "ck.json"
        run = ValuationEngine(saturating_game(8), checkpoint=ck).run_permutations(
            20, seed=5, check_every=5, max_evals=full.n_evaluations
        )
        assert run.n_permutations == 20
        assert run.n_evaluations == full.n_evaluations
        assert run.stop_reason == "completed"
        assert run.converged
        snapshot = CheckpointStore(ck).load()
        assert snapshot["finished"] is True
        assert snapshot["stop_reason"] == "completed"
        resumed = ValuationEngine(
            saturating_game(8), checkpoint=ck, resume=True
        ).run_permutations(
            20, seed=5, check_every=5, max_evals=full.n_evaluations
        )
        assert resumed.stop_reason == "completed"
        assert resumed.converged
        assert np.array_equal(resumed.values(), full.values())

    def test_checkpoint_without_resume_overwrites(self, tmp_path):
        ck = tmp_path / "ck.json"
        store = CheckpointStore(ck)
        ValuationEngine(saturating_game(), checkpoint=store).run_permutations(
            10, seed=1
        )
        snapshot = store.load()
        assert snapshot["finished"] is True
        assert snapshot["completed"] == 10


@pytest.mark.slow
def test_kill_minus_nine_then_resume_is_bit_identical(tmp_path):
    """Full-process SIGKILL mid-run: the child driver is killed between wave
    boundaries; resuming from its snapshot reproduces the uninterrupted
    values bit-for-bit (compared via exact float repr across processes)."""
    ck = tmp_path / "ck.json"
    script = textwrap.dedent(
        f"""
        import time
        import numpy as np
        from repro.importance import SubsetUtility, ValuationEngine

        rng = np.random.default_rng(3)
        w = rng.normal(size=8)

        def func(indices):
            time.sleep(0.003)  # slow enough to be killed mid-run
            idx = np.asarray(indices, dtype=int)
            return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

        engine = ValuationEngine(
            SubsetUtility(func, 8), checkpoint={str(ck)!r}
        )
        engine.run_permutations(60, seed=5, check_every=5)
        """
    )
    env = dict(os.environ, PYTHONPATH="src")
    child = subprocess.Popen([sys.executable, "-c", script], env=env)
    deadline = time.monotonic() + 30.0
    while not ck.exists() and time.monotonic() < deadline:
        if child.poll() is not None:
            break
        time.sleep(0.01)
    assert ck.exists(), "child never wrote a checkpoint"
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=30)
    snapshot = CheckpointStore(ck).load()
    assert 0 < snapshot["completed"] <= 60
    if snapshot["completed"] == 60:  # pragma: no cover - timing-dependent
        pytest.skip("child finished before the kill landed")

    rng = np.random.default_rng(3)
    w = rng.normal(size=8)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    uninterrupted = ValuationEngine(SubsetUtility(func, 8)).run_permutations(
        60, seed=5, check_every=5
    )
    resumed = ValuationEngine(
        SubsetUtility(func, 8), checkpoint=ck, resume=True
    ).run_permutations(60, seed=5, check_every=5)
    assert resumed.resumed_from == snapshot["completed"]
    assert np.array_equal(resumed.values(), uninterrupted.values())


# ---------------------------------------------------------------------- #
# budget degradation                                                     #
# ---------------------------------------------------------------------- #


class TestBudgetDegradation:
    def test_deadline_returns_partial_not_raise(self):
        run = ValuationEngine(saturating_game()).run_permutations(
            10_000, seed=5, deadline_s=0.05
        )
        assert run.stop_reason == "deadline"
        assert not run.converged
        assert 0 < run.n_permutations < 10_000
        assert np.all(np.isfinite(run.values()))
        assert np.all(np.isfinite(run.stderr()))

    def test_budget_stopped_run_draws_only_the_orderings_it_scans(self):
        """Orderings are drawn wave by wave, so a huge permutation target
        under a small budget costs nothing up front, and the orderings it
        scans are the prefix of the full stream."""
        engine = ValuationEngine(saturating_game())
        stream = engine._ordering_stream
        drawn = []

        def counted(seed, antithetic):
            for ordering in stream(seed, antithetic):
                drawn.append(ordering)
                yield ordering

        engine._ordering_stream = counted
        run = engine.run_permutations(
            10**9, seed=5, max_evals=80, check_every=4
        )
        assert run.stop_reason == "eval_budget"
        assert len(drawn) == run.n_permutations
        prefix = ValuationEngine(saturating_game()).run_permutations(
            run.n_permutations, seed=5
        )
        assert np.array_equal(run.values(), prefix.values())

    def test_stderr_shrinks_as_budget_grows(self):
        # Budgets stay well below 2**10 = 1024, the point at which the memo
        # holds every subset of the 10-point game and evaluations stop.
        means = []
        for budget in (60, 200, 600):
            run = ValuationEngine(saturating_game()).run_permutations(
                10_000, seed=5, max_evals=budget
            )
            assert run.stop_reason == "eval_budget"
            assert not run.converged
            means.append(float(run.stderr().mean()))
        assert means[0] > means[1] > means[2]

    def test_partial_prefix_matches_uninterrupted_prefix(self):
        partial = ValuationEngine(saturating_game()).run_permutations(
            100, seed=5, max_evals=80
        )
        exact_prefix = ValuationEngine(saturating_game()).run_permutations(
            partial.n_permutations, seed=5
        )
        assert np.array_equal(partial.values(), exact_prefix.values())

    def test_shapley_mc_budget_surfaces_in_extras(self, tmp_path):
        result = shapley_mc(
            saturating_game(), n_permutations=5_000, seed=5, max_evals=100
        )
        assert result.extras["converged"] is False
        assert result.extras["stop_reason"] == "eval_budget"
        assert result.extras["census"]["n_permutations_target"] == 5_000
        assert len(result.extras["stderr"]) == 10

    def test_validation(self):
        # Negative budgets are caller bugs; zero budgets are a legitimate
        # "already out of budget" state (see TestZeroBudgets below).
        engine = ValuationEngine(saturating_game())
        with pytest.raises(ValueError):
            engine.run_permutations(10, deadline_s=-0.1)
        with pytest.raises(ValueError):
            engine.run_permutations(10, max_evals=-1)


# ---------------------------------------------------------------------- #
# subset-sampling (banzhaf) resume                                       #
# ---------------------------------------------------------------------- #


class TestSubsetResume:
    def test_banzhaf_resume_answers_from_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.json"
        first = banzhaf_mc(saturating_game(), n_samples=40, seed=2, checkpoint=ck)
        game = saturating_game()
        again = banzhaf_mc(game, n_samples=40, seed=2, checkpoint=ck, resume=True)
        assert np.array_equal(first.values, again.values)
        assert game.n_evaluations == 0  # everything came from the snapshot

    def test_partial_subset_checkpoint_resumes_bit_identical(self, tmp_path):
        ck = tmp_path / "ck.json"
        # 30 distinct subsets (bitmask construction), so the fault below
        # genuinely fires mid-run instead of being absorbed by the memo.
        subsets = [[j for j in range(10) if (i >> j) & 1] for i in range(1, 31)]
        config = {"estimator": "test", "n": 10}
        full = ValuationEngine(saturating_game(10)).evaluate_many(subsets)

        class Boom(RuntimeError):
            pass

        game = saturating_game(10)
        original = game.func

        def exploding(indices):
            if game.n_evaluations >= 8:
                raise Boom()
            return original(indices)

        game.func = exploding
        engine = ValuationEngine(game, checkpoint=ck)
        with pytest.raises(Boom):
            engine.evaluate_many(subsets, checkpoint_config=config, wave_size=4)
        snapshot = CheckpointStore(ck).load()
        assert not snapshot["finished"]
        assert snapshot["values"]

        resumed_game = saturating_game(10)
        resumed = ValuationEngine(
            resumed_game, checkpoint=ck, resume=True
        ).evaluate_many(subsets, checkpoint_config=config, wave_size=4)
        assert np.array_equal(resumed, full)
        assert resumed_game.n_evaluations < 30

    def test_subset_fingerprint_mismatch_refuses(self, tmp_path):
        ck = tmp_path / "ck.json"
        banzhaf_mc(saturating_game(), n_samples=20, seed=2, checkpoint=ck)
        with pytest.raises(CheckpointMismatchError):
            banzhaf_mc(
                saturating_game(), n_samples=21, seed=2, checkpoint=ck, resume=True
            )

    #: 30 distinct subsets, so no value can come from the memo.
    DISTINCT = [[j for j in range(10) if (i >> j) & 1] for i in range(1, 31)]

    def test_finished_resume_makes_no_save_and_no_evaluation(self, tmp_path):
        ck = tmp_path / "ck.json"
        config = {"estimator": "test", "n": 10}
        full = ValuationEngine(saturating_game(10), checkpoint=ck).evaluate_many(
            self.DISTINCT, checkpoint_config=config, wave_size=4
        )
        game = saturating_game(10)
        hooks = CountingHooks()
        with io_hooks(hooks):
            resumed = ValuationEngine(
                game, checkpoint=ck, resume=True
            ).evaluate_many(self.DISTINCT, checkpoint_config=config, wave_size=4)
        assert hooks.published == []
        assert game.n_evaluations == 0
        assert np.array_equal(resumed, full)

    @pytest.mark.parametrize("saves", [1, 3, 7])
    def test_resume_evaluates_only_past_the_watermark(self, tmp_path, saves):
        ck = tmp_path / "ck.json"
        config = {"estimator": "test", "n": 10}
        full = ValuationEngine(saturating_game(10)).evaluate_many(self.DISTINCT)
        with pytest.raises(Killed):
            ValuationEngine(
                saturating_game(10), checkpoint=KilledAfter(ck, saves)
            ).evaluate_many(self.DISTINCT, checkpoint_config=config, wave_size=4)
        completed = CheckpointStore(ck).load()["completed"]
        assert completed == 4 * saves
        game = saturating_game(10)
        resumed = ValuationEngine(
            game, cache_size=0, checkpoint=ck, resume=True
        ).evaluate_many(self.DISTINCT, checkpoint_config=config, wave_size=4)
        assert game.n_evaluations == len(self.DISTINCT) - completed
        assert np.array_equal(resumed, full)


# ---------------------------------------------------------------------- #
# zero budgets and progress snapshots (service-layer contracts)          #
# ---------------------------------------------------------------------- #


class TestZeroBudgets:
    """`deadline_s=0` / `max_evals=0` return immediately with a well-formed
    empty partial result — the contract the service runtime leans on for
    jobs whose deadline expired while they were queued."""

    def test_zero_deadline_returns_immediately(self):
        calls = []
        game = saturating_game()
        original = game.evaluate

        def counting(indices):
            calls.append(tuple(indices))
            return original(indices)

        game.evaluate = counting
        run = ValuationEngine(game).run_permutations(50, seed=1, deadline_s=0.0)
        assert calls == []  # not a single utility evaluation
        assert run.stop_reason == "deadline"
        assert not run.converged
        assert run.n_permutations == 0
        assert np.array_equal(run.values(), np.zeros(game.n_train))
        assert np.all(np.isfinite(run.stderr()))

    def test_zero_max_evals_returns_immediately(self):
        run = ValuationEngine(saturating_game()).run_permutations(
            50, seed=1, max_evals=0
        )
        assert run.stop_reason == "eval_budget"
        assert run.n_permutations == 0 and run.n_evaluations == 0
        assert np.all(np.isfinite(run.values()))

    def test_zero_budget_with_truncation_skips_anchor_evals(self):
        # truncation_tolerance normally forces a full-coalition anchor
        # evaluation; a zero budget must skip even that.
        run = ValuationEngine(saturating_game()).run_permutations(
            50, seed=1, truncation_tolerance=0.1, max_evals=0
        )
        assert run.n_evaluations == 0
        assert run.stop_reason == "eval_budget"

class TestProgressCallback:
    def test_wave_boundary_snapshots(self):
        snapshots = []
        run = ValuationEngine(saturating_game()).run_permutations(
            20, seed=2, check_every=5, progress_callback=snapshots.append
        )
        completed = [s["completed"] for s in snapshots]
        assert completed == [5, 10, 15, 20]
        assert all(s["target"] == 20 for s in snapshots)
        # The last snapshot matches the final result bit-for-bit.
        assert np.array_equal(snapshots[-1]["values"], run.values())
        assert snapshots[-1]["n_evaluations"] == run.n_evaluations
        evals = [s["n_evaluations"] for s in snapshots]
        assert evals == sorted(evals)

    def test_progress_does_not_perturb_values(self):
        plain = ValuationEngine(saturating_game()).run_permutations(20, seed=2)
        observed = ValuationEngine(saturating_game()).run_permutations(
            20, seed=2, progress_callback=lambda s: None
        )
        assert np.array_equal(plain.values(), observed.values())


# ---------------------------------------------------------------------- #
# retention: two alternating slots                                       #
# ---------------------------------------------------------------------- #


def slot1(path):
    """Slot 1 of the store at ``path``: the sibling that alternates with it."""
    return path.with_name(f"{path.name}.prev")


def watermark(path):
    """``completed`` of the snapshot in one slot file, read without a store."""
    payload, error = unframe(json.loads(path.read_text(encoding="utf-8")))
    assert error is None
    return payload["completed"]


class TestRetention:
    def test_resume_unaffected_by_pruning(self, tmp_path):
        """A run that does not resume removes the slot an earlier run left
        behind before its first write, so a one-save run resumes from its
        own watermark, not from the earlier run's higher one."""
        ck = tmp_path / "ck.json"
        earlier = CheckpointStore(ck)
        for completed in (100, 105):
            earlier.save({"kind": "permutation", "fingerprint": "other",
                          "completed": completed})
        interrupted = ValuationEngine(saturating_game(), checkpoint=ck)
        partial = interrupted.run_permutations(
            20, seed=7, check_every=5, max_evals=2
        )
        assert partial.n_permutations == 5  # one wave, one save
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        resumed = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True
        ).run_permutations(20, seed=7, check_every=5)
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            20, seed=7, check_every=5
        )
        assert resumed.resumed_from == 5
        assert np.array_equal(resumed.values(), uninterrupted.values())

    def test_clear_removes_archives_too(self, tmp_path):
        """``clear`` removes both slots, slot 1 included."""
        store = CheckpointStore(tmp_path / "ck.json")
        for wave in range(3):
            store.save({"completed": wave})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json", "ck.json.prev"
        ]
        store.clear()
        assert not store.exists()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- #
# corruption: quarantine + fallback to the other slot                    #
# ---------------------------------------------------------------------- #


class TestCorruptionFallback:
    def _populate(self, tmp_path, waves=4):
        """Save waves 5, 10, ...: the newest lands in slot 0 (``ck.json``)
        after an odd number of saves and in slot 1 after an even one."""
        store = CheckpointStore(tmp_path / "ck.json")
        for wave in range(1, waves + 1):
            store.save(
                {"kind": "permutation", "fingerprint": "fp",
                 "completed": wave * 5, "totals": [float(wave)]}
            )
        return store

    def test_corrupt_primary_falls_back_to_newest_archive(self, tmp_path):
        """A damaged newest slot falls back to the other slot, which holds
        the snapshot before it; the damaged slot is removed."""
        store = self._populate(tmp_path, waves=3)
        store.path.write_text("{bit rot", encoding="utf-8")
        payload = store.load()
        assert payload["completed"] == 10
        assert store.last_recovery["path"] == str(store.path)
        assert store.last_recovery["recovered_from"] == "ck.json.prev"
        assert store.last_recovery["completed"] == 10
        assert not store.path.exists() and store.exists()
        # the damaged slot is gone: the next load is clean
        assert store.load()["completed"] == 10
        assert store.last_recovery is None
        # and the next save fills the damaged slot, keeping the fallback
        store.save({"kind": "permutation", "fingerprint": "fp", "completed": 15})
        assert watermark(store.path) == 15
        assert watermark(slot1(store.path)) == 10

    def test_crc_mismatch_detected_and_recovered(self, tmp_path):
        store = self._populate(tmp_path, waves=3)
        text = store.path.read_text(encoding="utf-8")
        assert '"completed":15' in text
        # flip payload bytes but keep the line valid JSON: parses fine,
        # fails the CRC — exactly what un-checksummed persistence missed
        store.path.write_text(text.replace('"completed":15', '"completed":99'))
        payload = store.load()
        assert payload["completed"] == 10
        assert "crc_mismatch" in store.last_recovery["error"]

    def test_falls_back_past_corrupt_archives(self, tmp_path):
        """Damage to slot 1, holding the newest snapshot, falls back to
        slot 0 and quarantines slot 1 to its own sidecar."""
        store = self._populate(tmp_path)
        damaged = slot1(store.path)
        damaged.write_text("also garbage")
        payload = store.load()
        assert payload["completed"] == 15
        assert store.last_recovery["path"] == str(damaged)
        assert store.last_recovery["recovered_from"] == "ck.json"
        assert not damaged.exists()
        assert (tmp_path / "ck.json.prev.corrupt").exists()

    def test_quarantines_corrupt_primary_to_sidecar(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        store = self._populate(tmp_path)
        store.path.write_text("{bit rot")
        store.load()
        sidecar = tmp_path / "ck.json.corrupt"
        assert sidecar.exists()
        records, report = read_jsonl(sidecar, artifact="quarantine")
        assert report.clean
        assert records[0]["kind"] == "quarantined_record"
        assert records[0]["raw"] == "{bit rot"

    def test_clear_keeps_only_the_quarantine_sidecar(self, tmp_path):
        store = self._populate(tmp_path)
        store.path.write_text("{bit rot")
        assert store.load()["completed"] == 20
        assert (tmp_path / "ck.json.corrupt.lock").exists()
        store.clear()
        assert [path.name for path in tmp_path.iterdir()] == ["ck.json.corrupt"]

    def test_raises_original_error_when_no_archive_survives(self, tmp_path):
        """With both slots damaged every load raises, and both files stay."""
        store = self._populate(tmp_path)
        store.path.write_text("{bit rot")
        slot1(store.path).write_text("dead")
        for _ in range(2):
            with pytest.raises(CheckpointError, match="unreadable"):
                store.load()
            assert store.last_recovery["recovered_from"] is None
            assert store.path.exists() and slot1(store.path).exists()

    def test_wrong_schema_is_a_fallback_candidate_not_fatal(self, tmp_path):
        store = self._populate(tmp_path)
        store.path.write_text(
            json.dumps({"schema_version": 999, "kind": "permutation"})
        )
        assert store.load()["completed"] == 20

    def test_fallback_emits_metrics_and_warn_alert(self, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs.atomicio import storage_alerts

        storage_alerts(clear=True)
        store = self._populate(tmp_path)
        store.path.write_text("junk")
        store.load()
        snap = obs_metrics.snapshot()
        assert any(
            name.startswith("storage.checkpoint_fallback")
            and entry["value"] >= 1
            for name, entry in snap.items()
        )
        alerts = storage_alerts()
        fallback = [
            a for a in alerts if a.metric == "storage.checkpoint_fallback"
        ]
        assert fallback and fallback[-1].severity == "warn"

    def test_resume_bit_identical_after_primary_corruption(self, tmp_path):
        ck = tmp_path / "ck.json"
        interrupted = ValuationEngine(
            saturating_game(), checkpoint=CheckpointStore(ck)
        )
        interrupted.run_permutations(30, seed=5, check_every=5, max_evals=60)
        # rot the primary snapshot after the "crash"
        ck.write_bytes(ck.read_bytes()[:-7] + b"XXXXXXX")
        resumed = ValuationEngine(
            saturating_game(),
            checkpoint=CheckpointStore(ck),
            resume=True,
        ).run_permutations(30, seed=5, check_every=5)
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            30, seed=5, check_every=5
        )
        assert resumed.resumed_from > 0
        assert np.array_equal(resumed.values(), uninterrupted.values())


# ---------------------------------------------------------------------- #
# the two-slot contract                                                  #
# ---------------------------------------------------------------------- #


class Killed(Exception):
    """Stands in for a process death right after a save returned."""


class KilledAfter(CheckpointStore):
    """A store whose run dies right after its ``saves``-th save."""

    def __init__(self, path, saves):
        super().__init__(path)
        self.saves_left = saves

    def save(self, state):
        super().save(state)
        self.saves_left -= 1
        if self.saves_left == 0:
            raise Killed


class CountingHooks(IOHooks):
    """Records the name of every file an atomic write published."""

    def __init__(self):
        self.published = []

    def on_replace(self, tmp, path, when):
        if when == "after":
            self.published.append(path.name)


class TestTwoSlots:
    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("saves", range(1, 7))
    def test_whole_file_damage_to_one_slot(self, tmp_path, saves, slot):
        """A run killed after 1 to 6 saves, then one slot overwritten
        whole: the resume starts from the newest valid snapshot of this
        run and ends bit-identical to an uninterrupted run."""
        ck = tmp_path / "ck.json"
        with pytest.raises(Killed):
            ValuationEngine(
                saturating_game(), checkpoint=KilledAfter(ck, saves)
            ).run_permutations(30, seed=5, check_every=5)
        # Save i lands in slot (i - 1) % 2, so the newest is in that of
        # save ``saves``; slot 1 does not exist yet after one save.
        (ck, slot1(ck))[slot].write_bytes(b"\x00 not a snapshot \xff")
        newest_damaged = slot == (saves - 1) % 2
        expected = 5 * (saves - 1) if newest_damaged else 5 * saves
        resuming = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True
        )
        if expected == 0:  # the only snapshot is damaged
            with pytest.raises(CheckpointError):
                resuming.run_permutations(30, seed=5, check_every=5)
            return
        resumed = resuming.run_permutations(30, seed=5, check_every=5)
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            30, seed=5, check_every=5
        )
        assert resumed.resumed_from == expected
        assert np.array_equal(resumed.values(), uninterrupted.values())
        assert np.array_equal(resumed.stderr(), uninterrupted.stderr())

    def test_default_store_falls_back(self, tmp_path):
        """The store ``checkpoint=path`` builds keeps a fallback too: with
        its newest snapshot damaged, the resume starts one wave earlier."""
        ck = tmp_path / "ck.json"
        partial = ValuationEngine(
            saturating_game(8), checkpoint=ck
        ).run_permutations(30, seed=5, check_every=5, max_evals=60)
        assert partial.n_permutations == 15  # three saves: slot 0 newest
        ck.write_bytes(ck.read_bytes()[:-7] + b"XXXXXXX")
        resumed = ValuationEngine(
            saturating_game(8), checkpoint=ck, resume=True
        ).run_permutations(30, seed=5, check_every=5)
        uninterrupted = ValuationEngine(saturating_game(8)).run_permutations(
            30, seed=5, check_every=5
        )
        assert resumed.resumed_from == 10
        assert np.array_equal(resumed.values(), uninterrupted.values())

    def test_path_reuse_never_falls_back_to_an_earlier_run(self, tmp_path):
        """A run that reuses a path without resuming falls back only to its
        own snapshots, never to those of the run that used the path
        before it."""
        ck = tmp_path / "ck.json"
        earlier = CheckpointStore(ck)
        for completed in (30, 35, 40):
            earlier.save({"kind": "permutation", "fingerprint": "A",
                          "completed": completed})
        store = CheckpointStore(ck)
        store.save({"kind": "permutation", "fingerprint": "B", "completed": 5})
        assert store.load_matching("permutation", "B")["completed"] == 5
        store.save({"kind": "permutation", "fingerprint": "B", "completed": 10})
        (newest,) = [
            path for path in tmp_path.iterdir() if watermark(path) == 10
        ]
        newest.write_text("{bit rot")
        payload = CheckpointStore(ck).load_matching("permutation", "B")
        assert payload["completed"] == 5

    def test_exists_when_only_slot_one_is_left(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.save({"completed": 5})
        store.save({"completed": 10})
        store.path.unlink()
        fresh = CheckpointStore(store.path)
        assert fresh.exists()
        assert fresh.load()["completed"] == 10

    def test_one_write_per_save_and_two_files(self, tmp_path):
        """Every save publishes exactly one file, and the directory only
        ever holds the two slots plus quarantine sidecars."""
        store = CheckpointStore(tmp_path / "ck.json")
        slots = {"ck.json", "ck.json.prev"}
        sidecars = {f"{name}.corrupt{lock}" for name in slots
                    for lock in ("", ".lock")}
        hooks = CountingHooks()
        with io_hooks(hooks):
            for n in range(1, 10):
                if n == 5:  # damage the newest snapshot, then fall back
                    slot1(store.path).write_text("junk")
                    assert store.load()["completed"] == 15
                store.save({"completed": 5 * n})
                assert len(hooks.published) == n
                names = {path.name for path in tmp_path.iterdir()}
                assert names - sidecars == (slots if n > 1 else {"ck.json"})
        assert hooks.published[:4] == ["ck.json", "ck.json.prev"] * 2
        # After the fallback to slot 0, the next save refills slot 1.
        assert hooks.published[4:6] == ["ck.json.prev", "ck.json"]
        assert store.load()["completed"] == 45

    def test_single_file_primary_loads_and_resumes(self, tmp_path):
        """A snapshot written by the single-file store of commit 310d873 is
        slot 0 as it stands: it loads unchanged and resumes
        bit-identically."""
        fixture = Path(__file__).parent / "data" / "primary_310d873.ck.json"
        ck = tmp_path / "ck.json"
        shutil.copyfile(fixture, ck)
        payload = CheckpointStore(ck).load()
        assert payload == unframe(json.loads(fixture.read_text()))[0]
        assert payload["completed"] == 10
        resumed = ValuationEngine(
            saturating_game(), checkpoint=ck, resume=True
        ).run_permutations(30, seed=5, check_every=5)
        uninterrupted = ValuationEngine(saturating_game()).run_permutations(
            30, seed=5, check_every=5
        )
        assert resumed.resumed_from == 10
        assert np.array_equal(resumed.values(), uninterrupted.values())
        assert np.array_equal(resumed.stderr(), uninterrupted.stderr())

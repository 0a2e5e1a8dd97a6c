"""Tests for the content-addressed result cache, standalone and wired
into the sweep runner (warm-cache re-runs must do zero evaluations)."""

import os

import pytest

from repro.backends import (
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    ResultCache,
    get_backend,
)
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import task as task_module
from repro.experiments import ResilienceOptions, SweepPoint, run_sweep

TINY_SIM = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=1)
TINY = EvaluationPlan(simulation=TINY_SIM)


def make_result(backend_id="analytical"):
    return EvaluationResult(
        backend=backend_id,
        metrics={"useful_work_fraction": MetricValue(0.5, 0.0)},
    )


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        path = cache.put(backend, params, TINY, make_result())
        assert os.path.exists(path)
        assert cache.get(backend, params, TINY) == make_result()

    def test_key_depends_on_request(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        cache.put(backend, params, TINY, make_result())
        # Different seed, different params, different backend: all misses.
        assert cache.get(backend, params, TINY.with_seed(99)) is None
        assert (
            cache.get(backend, params.with_overrides(n_processors=16384), TINY)
            is None
        )
        assert cache.get(get_backend("ctmc"), params, TINY) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        path = cache.put(backend, params, TINY, make_result())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert cache.get(backend, params, TINY) is None

    def test_foreign_backend_entry_is_a_miss(self, tmp_path):
        # An entry claiming another backend produced it must not be
        # served, even at the right path.
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        path = cache.put(backend, params, TINY, make_result(backend_id="ctmc"))
        assert os.path.exists(path)
        assert cache.get(backend, params, TINY) is None

    def test_missing_root_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        backend = get_backend("analytical")
        assert cache.get(backend, ModelParameters(), TINY) is None


class TestWarmCacheSweep:
    def make_points(self):
        base = ModelParameters(n_processors=8192)
        return [
            SweepPoint("s", 1.0, base),
            SweepPoint("s", 2.0, base.with_overrides(n_processors=16384)),
        ]

    def test_second_run_does_zero_evaluations(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        options = ResilienceOptions(cache_dir=cache_dir)
        cold = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=options,
        )
        assert not any("result cache" in note for note in cold.notes)

        def boom(*args, **kwargs):
            raise AssertionError("warm cache must not evaluate any point")

        monkeypatch.setattr(task_module, "execute_task", boom)
        warm = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=options,
        )
        assert warm.series == cold.series
        assert any(
            "result cache: 2 of 2 point(s) reused" in note for note in warm.notes
        )

    def test_cache_hit_preserves_integer_x(self, tmp_path, monkeypatch):
        # Machine-size sweeps declare integral x values. A cache-served
        # point must keep the declared type — the hit path used to cast
        # float(point.x), so 16384 came back as 16384.0 and a warm
        # archive was no longer byte-identical to a cold one.
        cache_dir = str(tmp_path / "cache")
        options = ResilienceOptions(cache_dir=cache_dir)
        points = [
            SweepPoint("s", 8192, ModelParameters(n_processors=8192)),
            SweepPoint(
                "s", 16384, ModelParameters(n_processors=16384)
            ),
        ]
        cold = run_sweep(
            "t", "t", "x", "useful_work_fraction", points,
            TINY_SIM, seed=5, resilience=options,
        )

        def boom(*args, **kwargs):
            raise AssertionError("warm cache must not evaluate any point")

        monkeypatch.setattr(task_module, "execute_task", boom)
        warm = run_sweep(
            "t", "t", "x", "useful_work_fraction",
            [SweepPoint(p.series, p.x, p.params) for p in points],
            TINY_SIM, seed=5, resilience=options,
        )
        assert warm.series == cold.series
        for (cold_x, *_), (warm_x, *_) in zip(
            cold.series["s"], warm.series["s"]
        ):
            assert type(warm_x) is type(cold_x) is int, (cold_x, warm_x)

    def test_seed_change_defeats_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = ResilienceOptions(cache_dir=cache_dir)
        run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=options,
        )
        other_seed = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=6, resilience=options,
        )
        assert not any("result cache" in note for note in other_seed.notes)

    def test_cache_composes_with_journal_resume(self, tmp_path):
        # A cache-hydrated sweep journals its points like a normal run,
        # so a subsequent journal resume sees them as completed.
        cache_dir = str(tmp_path / "cache")
        ckpt_dir = str(tmp_path / "journal")
        no_journal = ResilienceOptions(cache_dir=cache_dir)
        run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=no_journal,
        )
        with_journal = ResilienceOptions(
            cache_dir=cache_dir, checkpoint_dir=ckpt_dir
        )
        first = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=with_journal,
        )
        assert any("result cache: 2 of 2" in note for note in first.notes)
        resumed = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, resilience=with_journal,
        )
        assert resumed.series == first.series
        assert any("resumed from checkpoint journal" in n for n in resumed.notes)

    def test_backend_recorded_on_figure(self, tmp_path):
        figure = run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(),
            TINY_SIM, seed=5, backend="analytical",
        )
        assert figure.backend == "analytical"
        ys = figure.y_values("s")
        assert all(0 < y <= 1 for y in ys)


class TestTmpJanitor:
    """The init-time sweep of orphaned atomic-write temp files."""

    @staticmethod
    def plant_tmp(root, name=".cache-deadbeef.json.tmp", age=None):
        shard = root / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        tmp_file = shard / name
        tmp_file.write_text("{}", encoding="utf-8")
        if age is not None:
            old = os.path.getmtime(tmp_file) - age
            os.utime(tmp_file, (old, old))
        return tmp_file

    def test_stale_tmp_is_swept_and_counted(self, tmp_path):
        from repro.backends.cache import TMP_SWEEP_AGE_SECONDS
        from repro.obs import metrics

        stale = self.plant_tmp(tmp_path, age=TMP_SWEEP_AGE_SECONDS + 10)
        counter = metrics.registry().counter("cache.tmp_swept")
        before = counter.value
        ResultCache(str(tmp_path))
        assert not stale.exists()
        assert counter.value == before + 1

    def test_fresh_tmp_is_left_for_its_writer(self, tmp_path):
        fresh = self.plant_tmp(tmp_path)  # mtime = now
        ResultCache(str(tmp_path))
        assert fresh.exists()

    def test_sweep_runs_once_per_root_per_process(self, tmp_path):
        from repro.backends.cache import TMP_SWEEP_AGE_SECONDS

        ResultCache(str(tmp_path))  # registers the root as swept
        stale = self.plant_tmp(tmp_path, age=TMP_SWEEP_AGE_SECONDS + 10)
        ResultCache(str(tmp_path))  # second open: no second sweep
        assert stale.exists()

    def test_completed_entries_are_never_swept(self, tmp_path):
        from repro.backends.cache import TMP_SWEEP_AGE_SECONDS

        real = self.plant_tmp(
            tmp_path, name="cache-deadbeef.json",
            age=TMP_SWEEP_AGE_SECONDS + 10,
        )
        ResultCache(str(tmp_path))
        assert real.exists()

    def test_aliased_root_is_swept_once(self, tmp_path):
        # Regression: roots used to be tracked by their given
        # spelling, so one directory reached through a symlink (or a
        # different relative path) was registered twice — and swept
        # twice, racing a writer the age check was meant to protect.
        from repro.backends.cache import TMP_SWEEP_AGE_SECONDS

        real = tmp_path / "cacheroot"
        real.mkdir()
        alias = tmp_path / "alias"
        alias.symlink_to(real)
        first = self.plant_tmp(real, age=TMP_SWEEP_AGE_SECONDS + 10)
        ResultCache(str(alias))
        assert not first.exists()

        second = self.plant_tmp(real, age=TMP_SWEEP_AGE_SECONDS + 10)
        ResultCache(str(real))  # same root by realpath: no second sweep
        assert second.exists()


class TestShardedLayout:
    """Digest fan-out directories; the pre-shard flat layout is not read."""

    def test_entries_land_in_digest_shards(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        path = cache.put(backend, params, TINY, make_result())
        digest = cache.key(backend, params, TINY)
        assert path == os.path.join(
            str(tmp_path), "analytical", digest[:2], f"{digest}.json"
        )

    def test_flat_entry_is_an_ordinary_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = get_backend("analytical")
        params = ModelParameters(n_processors=8192)
        sharded = cache.put(backend, params, TINY, make_result())
        digest = cache.key(backend, params, TINY)
        # The pre-shard layout: the entry directly under the backend
        # directory. It is not read, and stays where it is.
        flat = tmp_path / "analytical" / f"{digest}.json"
        os.replace(sharded, flat)
        assert cache.get(backend, params, TINY) is None
        assert flat.exists()
        assert not os.path.exists(sharded)


class TestPrune:
    """LRU eviction down to a byte budget (``repro cache prune``)."""

    @staticmethod
    def fill(cache, count=4):
        backend = get_backend("analytical")
        entries = []
        for index in range(count):
            params = ModelParameters(n_processors=8192 * (index + 1))
            path = cache.put(backend, params, TINY, make_result())
            # Stagger last-use times: index 0 is the coldest.
            stamp = 1_000_000.0 + index * 100.0
            os.utime(path, (stamp, stamp))
            entries.append((params, path))
        return backend, entries

    def test_evicts_coldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend, entries = self.fill(cache)
        size = os.path.getsize(entries[0][1])
        summary = cache.prune(max_bytes=2 * size)
        assert summary["entries_before"] == 4
        assert summary["entries_removed"] == 2
        assert summary["bytes_after"] <= 2 * size
        assert not os.path.exists(entries[0][1])
        assert not os.path.exists(entries[1][1])
        assert cache.get(backend, entries[3][0], TINY) == make_result()

    def test_under_budget_is_a_no_op(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _, entries = self.fill(cache)
        summary = cache.prune(max_bytes=1 << 30)
        assert summary["entries_removed"] == 0
        assert all(os.path.exists(path) for _, path in entries)

    def test_zero_budget_clears_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self.fill(cache)
        summary = cache.prune(max_bytes=0)
        assert summary["entries_removed"] == 4
        assert summary["bytes_after"] == 0
        assert not any(files for _, _, files in os.walk(tmp_path))
        # Emptied shard directories are gone too (the backend
        # directory itself may remain; it is shared, not a shard).
        shards = [
            os.path.join(dirpath, name)
            for dirpath, dirs, _ in os.walk(tmp_path / "analytical")
            for name in dirs
        ]
        assert shards == []

    def test_negative_budget_is_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)

    def test_pruned_entry_is_an_ordinary_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend, entries = self.fill(cache, count=2)
        cache.prune(max_bytes=0)
        assert cache.get(backend, entries[0][0], TINY) is None
        # Re-put works and lands back in its shard.
        path = cache.put(backend, entries[0][0], TINY, make_result())
        assert os.path.isfile(path)

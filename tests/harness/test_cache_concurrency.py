"""SweepCache under many writers, plus info/prune.

Many server processes (or ``compuniformer serve`` next to a plain
``sweep``) may share one cache directory without coordinating: entries
are deterministic (DESIGN.md §3.2) and ``put`` is atomic, so racing
writers of one key leave one whole entry and no lost counts.  ``prune``
also clears the ``.lock``/``.inflight`` markers older versions of the
cache left beside their entries.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.harness.sweep import SweepCache


def _payload(value: int = 1) -> dict:
    return {"kind": "measurement", "value": value}


class TestInfoPrune:
    def test_info_empty(self, tmp_path):
        info = SweepCache(tmp_path / "none").info()
        assert info["entries"] == 0
        assert info["bytes"] == 0

    def test_info_counts_entries_and_claims(self, tmp_path):
        """Markers an older version left are not entries, and no claim
        count is reported any more."""
        cache = SweepCache(tmp_path)
        cache.put("11" * 32, _payload())
        cache.put("22" * 32, dict(_payload(), kind="verify", report={}))
        cache.path("11" * 32).with_suffix(".inflight").write_text("{}")
        info = cache.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["kinds"] == {"measurement": 1, "verify": 1}
        assert info["stale_entries"] == 0
        assert "inflight_claims" not in info
        assert list(info["versions"]) == [info["current_version"]]

    def test_prune_removes_stale_versions(self, tmp_path):
        cache = SweepCache(tmp_path)
        fresh, stale = "44" * 32, "55" * 32
        cache.put(fresh, _payload())
        cache.put(stale, _payload())
        path = cache.path(stale)
        payload = json.loads(path.read_text())
        payload["engine"] = "0.0-ancient"
        path.write_text(json.dumps(payload))

        info = cache.info()
        assert info["stale_entries"] == 1
        dry = cache.prune(dry_run=True)
        assert dry == {
            "removed": 1,
            "kept": 1,
            "freed_bytes": path.stat().st_size,
            "markers_removed": 0,
            "dry_run": True,
        }
        assert path.exists()  # dry run deletes nothing

        wet = cache.prune()
        assert wet["removed"] == 1 and not wet["dry_run"]
        assert not path.exists()
        assert cache.get(fresh) is not None
        assert cache.info()["stale_entries"] == 0

    def test_prune_removes_reportless_verdicts(self, tmp_path):
        """A verdict stored without its report was keyed by a formula no
        plan computes any more: unreachable, so prune drops it although
        its version stamps are current."""
        cache = SweepCache(tmp_path)
        live, orphan = "88" * 32, "99" * 32
        cache.put(live, {"kind": "verify", "report": {}})
        cache.put(orphan, {"kind": "verify", "app": "fft", "nranks": 4})
        assert cache.info()["stale_entries"] == 1
        assert cache.prune()["removed"] == 1
        assert cache.get(live) is not None
        assert not cache.path(orphan).exists()

    def test_prune_removes_corrupt_and_stale_claims(self, tmp_path):
        """Corrupt entries go, and so does every ``.lock``/``.inflight``
        marker older versions left (nothing writes them now); a dry
        run only counts them."""
        cache = SweepCache(tmp_path)
        bad = cache.path("66" * 32)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        cache.put("77" * 32, _payload())
        entry = cache.path("77" * 32)
        markers = [
            entry.with_suffix(".lock"),
            entry.with_suffix(".inflight"),
            bad.with_suffix(".lock"),
        ]
        for marker in markers:
            marker.write_text('{"pid": 1, "time": 0}')

        dry = cache.prune(dry_run=True)
        assert dry["removed"] == 1 and dry["markers_removed"] == 3
        assert bad.exists() and all(m.exists() for m in markers)

        report = cache.prune()
        assert report["removed"] == 1  # the corrupt entry
        assert report["markers_removed"] == 3
        assert not bad.exists() and not any(m.exists() for m in markers)
        assert [p for p, _ in cache.entries()] == [entry]
        assert cache.prune()["markers_removed"] == 0


@pytest.mark.parametrize("nwriters", [2, 6])
def test_put_race_is_atomic(tmp_path, nwriters):
    """Concurrent put() of the same key never leaves a torn entry."""
    cache = SweepCache(tmp_path)
    key = "99" * 32
    barrier = threading.Barrier(nwriters)

    def writer(i):
        barrier.wait()
        cache.put(key, _payload(i))

    threads = [
        threading.Thread(target=writer, args=(i,)) for i in range(nwriters)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    payload = cache.get(key)
    assert payload is not None and payload["value"] in range(nwriters)


def test_stats_counts_are_not_lost_across_threads(tmp_path):
    """A sweep server probes the cache from worker threads while its
    event loop stores: concurrent counts must all land."""
    cache = SweepCache(tmp_path)
    per_thread, nthreads = 2000, 8

    def counter():
        for _ in range(per_thread):
            cache.count("hits")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=counter) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert cache.stats.hits == per_thread * nthreads

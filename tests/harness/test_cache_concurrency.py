"""SweepCache multi-writer protocol: claims, waiting, info/prune.

Many server processes (or ``compuniformer serve`` next to a plain
``sweep``) share one cache directory; the in-flight claim markers and
per-entry advisory locks must guarantee a single simulating winner per
fingerprint while every loser waits for (and then reads) the winner's
entry.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.harness.sweep import CLAIM_STALE_AFTER, SweepCache


def _payload(value: int = 1) -> dict:
    return {"kind": "measurement", "value": value}


class TestClaim:
    def test_claim_then_reclaim(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.claim("ab" * 32)
        assert not cache.claim("ab" * 32)  # held by us == held
        assert cache.claim_live("ab" * 32)

    def test_release_reopens_claim(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "cd" * 32
        assert cache.claim(key)
        cache.release(key)
        assert not cache.claim_live(key)
        assert cache.claim(key)

    def test_release_is_idempotent(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.release("ef" * 32)  # never claimed: no error
        cache.release("ef" * 32)

    def test_put_releases_the_claim(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "01" * 32
        assert cache.claim(key)
        cache.put(key, _payload())
        assert not cache.claim_path(key).exists()
        assert cache.get(key)["value"] == 1

    def test_existing_entry_blocks_claim(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "23" * 32
        cache.put(key, _payload())
        assert not cache.claim(key)
        assert not cache.claim_path(key).exists()

    def test_stale_claim_is_broken(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "45" * 32
        assert cache.claim(key)
        marker = cache.claim_path(key)
        info = json.loads(marker.read_text())
        info["time"] = time.time() - CLAIM_STALE_AFTER - 1
        marker.write_text(json.dumps(info))
        assert not cache.claim_live(key)
        assert cache.claim(key)  # broke the abandoned marker

    def test_unreadable_claim_counts_as_stale(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "67" * 32
        assert cache.claim(key)
        cache.claim_path(key).write_text("not json")
        assert not cache.claim_live(key)
        assert cache.claim(key)

    def test_threads_race_one_winner(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "89" * 32
        barrier = threading.Barrier(8)
        wins = []

        def contender():
            barrier.wait()
            if cache.claim(key):
                wins.append(threading.get_ident())

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestWaitFor:
    def test_entry_already_present(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "aa" * 32
        cache.put(key, _payload(7))
        assert cache.wait_for(key)["value"] == 7

    def test_timeout_while_claim_live(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "bb" * 32
        assert cache.claim(key)
        assert cache.wait_for(key, timeout=0.15, poll=0.02) is None

    def test_released_claim_without_entry(self, tmp_path):
        # writer crashed politely (released without put): wait_for
        # returns None immediately so the caller re-claims
        cache = SweepCache(tmp_path)
        key = "cc" * 32
        assert cache.wait_for(key, timeout=5.0, poll=0.01) is None

    def test_waiter_sees_peer_entry_land(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "dd" * 32
        assert cache.claim(key)
        got = []

        def waiter():
            got.append(cache.wait_for(key, timeout=10.0, poll=0.01))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        cache.put(key, _payload(42))
        t.join()
        assert got[0]["value"] == 42


class TestInfoPrune:
    def test_info_empty(self, tmp_path):
        info = SweepCache(tmp_path / "none").info()
        assert info["entries"] == 0
        assert info["bytes"] == 0
        assert info["inflight_claims"] == 0

    def test_info_counts_entries_and_claims(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("11" * 32, _payload())
        cache.put("22" * 32, dict(_payload(), kind="verify"))
        assert cache.claim("33" * 32)
        info = cache.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["kinds"] == {"measurement": 1, "verify": 1}
        assert info["stale_entries"] == 0
        assert info["inflight_claims"] == 1
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
            "stale_claims_removed": 0,
            "dry_run": True,
        }
        assert path.exists()  # dry run deletes nothing

        wet = cache.prune()
        assert wet["removed"] == 1 and not wet["dry_run"]
        assert not path.exists()
        assert cache.get(fresh) is not None
        assert cache.info()["stale_entries"] == 0

    def test_prune_removes_corrupt_and_stale_claims(self, tmp_path):
        cache = SweepCache(tmp_path)
        bad = cache.path("66" * 32)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        assert cache.claim("77" * 32)
        marker = cache.claim_path("77" * 32)
        info = json.loads(marker.read_text())
        info["time"] = time.time() - CLAIM_STALE_AFTER - 1
        marker.write_text(json.dumps(info))

        report = cache.prune()
        assert report["removed"] == 1  # the corrupt entry
        assert report["stale_claims_removed"] == 1
        assert not bad.exists() and not marker.exists()

    def test_prune_keeps_live_claims(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.claim("88" * 32)
        report = cache.prune()
        assert report["stale_claims_removed"] == 0
        assert cache.claim_live("88" * 32)


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

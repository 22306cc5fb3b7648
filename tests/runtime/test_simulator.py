"""Discrete-event engine semantics: timing, matching, overlap, failures."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.runtime.events import Barrier, Compute, Irecv, Isend, LocalCopy, Wait
from repro.runtime.network import IDEAL, MPICH_GM, MPICH_P4, NetworkModel
from repro.runtime.simulator import simulate

#: Deterministic offload network with round numbers for exact assertions.
NET = NetworkModel(
    name="test",
    latency=10.0,
    byte_time=1.0,  # 1 s per byte: an 8-byte message occupies NICs 8 s
    send_overhead=1.0,
    recv_overhead=1.0,
    offload=True,
    host_byte_time=0.0,
    copy_byte_time=0.0,
)


def _buf(n=1, value=0):
    return np.full(n, value, dtype=np.int64)


class TestCompute:
    def test_compute_advances_clock(self):
        def prog():
            yield Compute(seconds=5.0)
            yield Compute(seconds=2.5)

        res = simulate([prog()], IDEAL)
        assert res.time == pytest.approx(7.5)
        assert res.stats[0].compute_time == pytest.approx(7.5)

    def test_negative_compute_rejected(self):
        def prog():
            yield Compute(seconds=-1.0)

        with pytest.raises(SimulationError):
            simulate([prog()], IDEAL)

    def test_makespan_is_max_rank(self):
        def prog(t):
            def gen():
                yield Compute(seconds=t)

            return gen()

        res = simulate([prog(1.0), prog(9.0), prog(3.0)], IDEAL)
        assert res.time == pytest.approx(9.0)
        assert res.rank_times == pytest.approx([1.0, 9.0, 3.0])


class TestPointToPoint:
    def test_payload_delivered(self):
        data = np.arange(4, dtype=np.int64)
        out = np.zeros(4, dtype=np.int64)

        def sender():
            h = yield Isend(dest=1, tag=7, data=data)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=7, buffer=out, nbytes=32)
            yield Wait(handles=[h])

        simulate([sender(), receiver()], NET)
        assert np.array_equal(out, data)

    def test_transfer_timing_exact(self):
        """recv completes at send_overhead + wire + latency."""
        data = _buf(1, 42)
        out = _buf(1)

        def sender():
            h = yield Isend(dest=1, tag=0, data=data)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=out, nbytes=8)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], NET)
        # send posted at t=1 (overhead), wire 8 s, latency 10 -> complete 19
        assert res.rank_times[1] == pytest.approx(19.0)

    def test_tag_matching(self):
        a = _buf(1, 1)
        b = _buf(1, 2)
        out1, out2 = _buf(1), _buf(1)

        def sender():
            h1 = yield Isend(dest=1, tag=5, data=a)
            h2 = yield Isend(dest=1, tag=6, data=b)
            yield Wait(handles=[h1, h2])

        def receiver():
            # posted in opposite tag order: matching is by tag, not arrival
            h2 = yield Irecv(source=0, tag=6, buffer=out2, nbytes=8)
            h1 = yield Irecv(source=0, tag=5, buffer=out1, nbytes=8)
            yield Wait(handles=[h1, h2])

        simulate([sender(), receiver()], NET)
        assert out1[0] == 1 and out2[0] == 2

    def test_fifo_within_same_tag(self):
        first = _buf(1, 10)
        second = _buf(1, 20)
        o1, o2 = _buf(1), _buf(1)

        def sender():
            h1 = yield Isend(dest=1, tag=0, data=first)
            h2 = yield Isend(dest=1, tag=0, data=second)
            yield Wait(handles=[h1, h2])

        def receiver():
            h1 = yield Irecv(source=0, tag=0, buffer=o1, nbytes=8)
            h2 = yield Irecv(source=0, tag=0, buffer=o2, nbytes=8)
            yield Wait(handles=[h1, h2])

        simulate([sender(), receiver()], NET)
        assert (o1[0], o2[0]) == (10, 20)

    def test_invalid_dest_raises(self):
        def prog():
            yield Isend(dest=5, tag=0, data=_buf())

        with pytest.raises(SimulationError):
            simulate([prog()], NET)

    def test_buffer_size_mismatch_raises(self):
        def sender():
            h = yield Isend(dest=1, tag=0, data=_buf(4))
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(2), nbytes=16)
            yield Wait(handles=[h])

        with pytest.raises(SimulationError, match="size mismatch"):
            simulate([sender(), receiver()], NET)

    def test_payload_free_engine_checks_receive_size(self):
        """Without payloads nothing is delivered, but a receive posted
        with the wrong size still fails, on its posted ``nbytes``."""

        def sender():
            h = yield Isend(dest=1, tag=0, data=_buf(4))
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(4), nbytes=16)
            yield Wait(handles=[h])

        with pytest.raises(
            SimulationError, match="size mismatch: posted 16 B"
        ):
            simulate(
                [sender(), receiver()], NET, detect_races=False, payloads=False
            )

    def test_payload_free_engine_times_without_delivering(self):
        def programs(out):
            def sender():
                data = np.arange(4, dtype=np.int64)
                h = yield Isend(dest=1, tag=0, data=data)
                yield Compute(seconds=3.0)
                yield Wait(handles=[h])

            def receiver():
                h = yield Irecv(source=0, tag=0, buffer=out, nbytes=32)
                yield Wait(handles=[h])

            return [sender(), receiver()]

        full_out, free_out = _buf(4, -1), _buf(4, -1)
        full = simulate(programs(full_out), NET)
        free = simulate(
            programs(free_out), NET, detect_races=False, payloads=False
        )
        assert list(full_out) == [0, 1, 2, 3]
        assert list(free_out) == [-1, -1, -1, -1]
        assert (free.time, free.rank_times, free.stats) == (
            full.time,
            full.rank_times,
            full.stats,
        )
        assert free.ops_processed == full.ops_processed

    def test_race_detection_requires_payloads(self):
        with pytest.raises(SimulationError, match="requires payloads"):
            simulate([], NET, payloads=False)

    def test_wait_unknown_handle_raises(self):
        def prog():
            yield Wait(handles=[99])

        with pytest.raises(SimulationError, match="unknown handle"):
            simulate([prog()], NET)


class TestOverlap:
    """The property the whole paper is about: offload lets compute hide wire
    time; a host-driven stack cannot."""

    def _programs(self, nbytes: int, compute: float):
        data = np.zeros(nbytes // 8, dtype=np.int64)
        out = np.zeros(nbytes // 8, dtype=np.int64)

        def sender():
            h = yield Isend(dest=1, tag=0, data=data)
            yield Compute(seconds=compute)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=out, nbytes=nbytes)
            yield Compute(seconds=compute)
            yield Wait(handles=[h])

        return [sender(), receiver()]

    def test_offload_overlaps(self):
        # wire = 800 s, latency 10; compute 1000 covers it entirely
        res = simulate(self._programs(800 * 8 // 8, compute=1000.0), NET)
        # sender: 1 (overhead) + 1000 (compute) = 1001; transfer done at
        # 1 + 800*... nbytes=800 -> wire 800 -> complete 811 < 1001
        assert res.rank_times[0] == pytest.approx(1001.0)
        assert res.stats[0].wait_time == pytest.approx(0.0)

    def test_offload_exposes_remainder(self):
        # compute 100 << wire 800: wait pays the remainder
        res = simulate(self._programs(800, compute=100.0), NET)
        # transfer complete at 1 + 800 + 10 = 811; sender waits from 101
        assert res.rank_times[0] == pytest.approx(811.0)
        assert res.stats[0].wait_time == pytest.approx(710.0)

    def test_host_stack_cannot_overlap(self):
        host = NET.with_(name="host", offload=False, host_byte_time=2.0)
        data = np.zeros(100, dtype=np.int64)  # 800 B
        out = np.zeros(100, dtype=np.int64)

        def sender():
            h = yield Isend(dest=1, tag=0, data=data)
            yield Compute(seconds=50.0)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=out, nbytes=800)
            yield Compute(seconds=50.0)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], host)
        # the send itself cost 1 + 800*2 = 1601 s of CPU before compute
        assert res.stats[0].mpi_overhead_time >= 1600.0
        assert res.rank_times[0] >= 1651.0


class TestNicContention:
    def test_receiver_nic_serializes(self):
        """Two senders to one receiver: wire occupancy is serialized."""
        out1, out2 = _buf(100), _buf(100)  # 800 B each -> 800 s wire

        def sender(tag):
            def gen():
                h = yield Isend(dest=2, tag=tag, data=_buf(100, tag))
                yield Wait(handles=[h])

            return gen()

        def receiver():
            h1 = yield Irecv(source=0, tag=1, buffer=out1, nbytes=800)
            h2 = yield Irecv(source=1, tag=2, buffer=out2, nbytes=800)
            yield Wait(handles=[h1, h2])

        res = simulate([sender(1), sender(2), receiver()], NET)
        # both transfers queue on rank 2's NIC: 800 + 800 + latency
        assert res.rank_times[2] >= 1610.0

    def test_distinct_receivers_parallel(self):
        def sender(dest):
            def gen():
                h = yield Isend(dest=dest, tag=0, data=_buf(100))
                yield Wait(handles=[h])

            return gen()

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(100), nbytes=800)
            yield Wait(handles=[h])

        def receiver1():
            h = yield Irecv(source=1, tag=0, buffer=_buf(100), nbytes=800)
            yield Wait(handles=[h])

        res = simulate(
            [sender(2), sender(3), receiver(), receiver1()], NET
        )
        # sender NICs are distinct, receiver NICs are distinct: parallel
        assert res.time < 1000.0


class TestBarrier:
    def test_barrier_synchronizes(self):
        order = []

        def fast():
            yield Compute(seconds=1.0)
            yield Barrier()
            order.append("fast")

        def slow():
            yield Compute(seconds=50.0)
            yield Barrier()
            order.append("slow")

        res = simulate([fast(), slow()], NET)
        # both resume at the same post-barrier time
        assert res.rank_times[0] == res.rank_times[1]
        assert res.rank_times[0] >= 50.0
        assert res.stats[0].wait_time >= 49.0

    def test_finished_ranks_leave_the_barrier_quorum(self):
        """A barrier waits only for the ranks still running.  Rank 0
        finishes as soon as the first barrier releases; rank 1 finishes
        while ranks 2 and 3 already wait in the second, and its finish
        releases them.  The result is pinned to the engine's values from
        before the quorum became a running count."""

        def leaves_early():
            yield Compute(seconds=1.0)
            yield Barrier()

        def leaves_late():
            yield Compute(seconds=3.0)
            yield Barrier()
            yield Compute(seconds=100.0)
            yield LocalCopy(nbytes=8)  # back to the scheduler, then finish

        def stays(first, second):
            yield Compute(seconds=first)
            yield Barrier()
            yield Compute(seconds=second)
            yield Barrier()
            yield Compute(seconds=1.0)
            yield Barrier()

        res = simulate(
            [leaves_early(), leaves_late(), stays(2.0, 5.0), stays(4.0, 7.0)],
            NET,
        )
        assert res.time == 124.0
        assert res.rank_times == [24.0, 124.0, 72.0, 72.0]
        assert res.ops_processed == 18
        assert [
            (s.compute_time, s.mpi_overhead_time, s.wait_time)
            for s in res.stats
        ] == [
            (1.0, 20.0, 3.0),
            (103.0, 20.0, 1.0),
            (8.0, 60.0, 4.0),
            (12.0, 60.0, 0.0),
        ]


class TestFailureModes:
    def test_deadlock_detected(self):
        def lonely():
            h = yield Irecv(source=1, tag=0, buffer=_buf(), nbytes=8)
            yield Wait(handles=[h])

        def silent():
            yield Compute(seconds=1.0)

        with pytest.raises(DeadlockError, match="rank 0 blocked"):
            simulate([lonely(), silent()], NET)

    def test_unwaited_request_warns(self):
        def sender():
            yield Isend(dest=1, tag=0, data=_buf())

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(), nbytes=8)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], NET)
        assert any("never waited" in w for w in res.warnings)

    def test_inflight_modification_detected(self):
        """Overwriting a send buffer before the transfer completes is the
        bug an unsafe transformation would introduce; the engine reports it."""
        data = _buf(100, 1)

        def sender():
            h = yield Isend(dest=1, tag=0, data=data)
            data[0] = 999  # stomp the buffer while in flight
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(100), nbytes=800)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], NET)
        assert any("in flight" in w for w in res.warnings)

    def test_race_detection_can_be_disabled(self):
        data = _buf(100, 1)

        def sender():
            h = yield Isend(dest=1, tag=0, data=data)
            data[0] = 999
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=_buf(100), nbytes=800)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], NET, detect_races=False)
        assert not any("in flight" in w for w in res.warnings)


class TestUnexpectedMessages:
    def test_late_recv_counts_unexpected(self):
        def sender():
            h = yield Isend(dest=1, tag=0, data=_buf())
            yield Wait(handles=[h])

        def receiver():
            yield Compute(seconds=10000.0)  # message arrives long before
            h = yield Irecv(source=0, tag=0, buffer=_buf(), nbytes=8)
            yield Wait(handles=[h])

        res = simulate([sender(), receiver()], NET)
        assert res.stats[1].unexpected_messages == 1


class TestDeterminism:
    def test_repeated_runs_identical(self):
        def make():
            def sender():
                hs = []
                for i in range(5):
                    h = yield Isend(dest=1, tag=i, data=_buf(10, i))
                    hs.append(h)
                yield Compute(seconds=3.0)
                yield Wait(handles=hs)

            def receiver():
                hs = []
                for i in range(5):
                    h = yield Irecv(
                        source=0, tag=i, buffer=_buf(10), nbytes=80
                    )
                    hs.append(h)
                yield Compute(seconds=1.0)
                yield Wait(handles=hs)

            return [sender(), receiver()]

        a = simulate(make(), MPICH_GM)
        b = simulate(make(), MPICH_GM)
        assert a.time == b.time
        assert a.rank_times == b.rank_times


class TestLocalCopy:
    def test_local_copy_charges_cpu(self):
        net = NET.with_(copy_byte_time=2.0)

        def prog():
            yield LocalCopy(nbytes=100)

        res = simulate([prog()], net)
        assert res.time == pytest.approx(200.0)

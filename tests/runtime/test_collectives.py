"""Collective-algorithm registry: data equivalence, goldens, registry API.

Every registered algorithm of a collective must produce bit-identical
result buffers (the payloads are integers, reductions are exact), pinned
here at 2, 4, and 7 ranks — the non-power-of-two exercises the Bruck and
binomial remainder handling.  Virtual times are pinned per algorithm x
scenario; the pairwise alltoall goldens equal the pre-registry
implementation's timings bit-for-bit (the default schedule must not
move).  A payload-free communicator must emit exactly the op stream of
a payload-carrying one while leaving every buffer untouched.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.runtime.collectives import (
    COLLECTIVES,
    default_algorithm,
    describe_suite,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    resolve_suite,
)
from repro.runtime.events import Irecv, Isend, LocalCopy, Wait
from repro.runtime.mpi import SimComm
from repro.runtime.network import MPICH_GM, get_model
from repro.runtime.simulator import simulate

RANK_COUNTS = (2, 4, 7)


# ----------------------------------------------------------- registry API


def test_registry_reports_required_algorithms():
    algos = list_algorithms()
    assert set(algos) == set(COLLECTIVES)
    assert len(algos["alltoall"]) >= 4
    assert {"pairwise", "ring", "bruck", "scattered"} <= set(algos["alltoall"])
    # >= 3 collectives beyond alltoall, each with at least one algorithm
    others = [c for c in COLLECTIVES if c != "alltoall" and algos[c]]
    assert len(others) >= 3


def test_defaults():
    assert default_algorithm("alltoall") == "pairwise"
    assert default_algorithm("allreduce") == "recursive-doubling"
    assert default_algorithm("allgather") == "ring"
    assert default_algorithm("bcast") == "binomial"


def test_get_algorithm_unknown_names():
    with pytest.raises(SimulationError, match="unknown collective"):
        get_algorithm("reduce_scatter")
    with pytest.raises(SimulationError, match="unknown alltoall algorithm"):
        get_algorithm("alltoall", "hypercube")


def test_register_rejects_duplicate_without_overwrite():
    def fake(comm, send, recv, part):
        yield from ()

    with pytest.raises(SimulationError, match="already registered"):
        register_algorithm("alltoall", "pairwise", fake)
    # same function object re-registers silently (idempotent import)
    register_algorithm("alltoall", "pairwise", get_algorithm("alltoall"))


def test_register_decorator_and_overwrite():
    @register_algorithm("bcast", "test-noop")
    def noop(comm, buf, root):
        yield from ()

    try:
        assert get_algorithm("bcast", "test-noop") is noop
        register_algorithm("bcast", "test-noop", noop, overwrite=True)
    finally:
        # keep the registry clean for other tests
        from repro.runtime import collectives as mod

        del mod._REGISTRY["bcast"]["test-noop"]


def test_resolve_suite_forms():
    defaults = resolve_suite(None)
    assert defaults["alltoall"] == "pairwise"
    assert set(defaults) == set(COLLECTIVES)
    # bare name applies to every collective that registers it
    ring = resolve_suite("ring")
    assert ring["alltoall"] == "ring"
    assert ring["allreduce"] == "ring"
    assert ring["allgather"] == "ring"
    assert ring["bcast"] == "binomial"  # no ring bcast: keeps default
    # bruck only names an alltoall algorithm
    bruck = resolve_suite("bruck")
    assert bruck["alltoall"] == "bruck"
    assert bruck["allreduce"] == "recursive-doubling"
    # mapping and CLI pair syntax
    assert resolve_suite({"alltoall": "scattered"})["alltoall"] == "scattered"
    pairs = resolve_suite("alltoall=bruck,allreduce=ring")
    assert pairs["alltoall"] == "bruck" and pairs["allreduce"] == "ring"


def test_resolve_suite_rejects_unknown():
    with pytest.raises(SimulationError, match="no collective registers"):
        resolve_suite("quantum")
    with pytest.raises(SimulationError, match="unknown alltoall algorithm"):
        resolve_suite({"alltoall": "quantum"})
    with pytest.raises(SimulationError, match="unknown collective"):
        resolve_suite("reduce_scatter=ring")


def test_describe_suite_round_trip():
    text = describe_suite(resolve_suite("alltoall=bruck"))
    assert "alltoall=bruck" in text
    assert resolve_suite(text)["alltoall"] == "bruck"


def test_simcomm_exposes_resolved_suite():
    comm = SimComm(0, 4, collectives="bruck")
    assert comm.collectives["alltoall"] == "bruck"
    with pytest.raises(SimulationError, match="no collective registers"):
        SimComm(0, 4, collectives="quantum")


# ------------------------------------------------- running one collective


def run_alltoall(nranks, part, algorithm, network=MPICH_GM):
    sends = [
        np.arange(nranks * part, dtype=np.int64) + 1000 * r
        for r in range(nranks)
    ]
    recvs = [np.zeros(nranks * part, dtype=np.int64) for _ in range(nranks)]

    def program(rank):
        comm = SimComm(rank, nranks, collectives={"alltoall": algorithm})
        yield from comm.alltoall(sends[rank], recvs[rank])

    res = simulate([program(r) for r in range(nranks)], network)
    return res, recvs


def run_allreduce(nranks, count, algorithm, op="sum", network=MPICH_GM):
    sends = [
        np.arange(count, dtype=np.int64) * (r + 1) + r for r in range(nranks)
    ]
    recvs = [np.zeros(count, dtype=np.int64) for _ in range(nranks)]

    def program(rank):
        comm = SimComm(rank, nranks, collectives={"allreduce": algorithm})
        yield from comm.allreduce(sends[rank], recvs[rank], op=op)

    res = simulate([program(r) for r in range(nranks)], network)
    return res, sends, recvs


def run_allgather(nranks, block, algorithm, network=MPICH_GM):
    sends = [np.arange(block, dtype=np.int64) + 100 * r for r in range(nranks)]
    recvs = [np.zeros(nranks * block, dtype=np.int64) for _ in range(nranks)]

    def program(rank):
        comm = SimComm(rank, nranks, collectives={"allgather": algorithm})
        yield from comm.allgather(sends[rank], recvs[rank])

    res = simulate([program(r) for r in range(nranks)], network)
    return res, sends, recvs


def run_bcast(nranks, count, algorithm, root, network=MPICH_GM):
    bufs = [
        np.arange(count, dtype=np.int64) + 7
        if r == root
        else np.zeros(count, dtype=np.int64)
        for r in range(nranks)
    ]

    def program(rank):
        comm = SimComm(rank, nranks, collectives={"bcast": algorithm})
        yield from comm.bcast(bufs[rank], root=root)

    res = simulate([program(r) for r in range(nranks)], network)
    return res, bufs


# --------------------------------------- cross-algorithm data equivalence


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(list_algorithms("alltoall")))
def test_alltoall_data_equivalence(algorithm, nranks):
    """Every algorithm satisfies the MPI_ALLTOALL permutation contract."""
    part = 5
    _, recvs = run_alltoall(nranks, part, algorithm)
    for r in range(nranks):
        for j in range(nranks):
            expected = np.arange(nranks * part, dtype=np.int64)[
                j * part : (j + 1) * part
            ] + 1000 * r
            assert np.array_equal(
                recvs[j][r * part : (r + 1) * part], expected
            ), (algorithm, r, j)


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(list_algorithms("allreduce")))
@pytest.mark.parametrize("op,fold", [("sum", np.sum), ("max", np.max), ("min", np.min)])
def test_allreduce_data_equivalence(algorithm, nranks, op, fold):
    _, sends, recvs = run_allreduce(nranks, 9, algorithm, op=op)
    expected = fold(np.stack(sends), axis=0)
    for r in range(nranks):
        assert np.array_equal(recvs[r], expected), (algorithm, op, r)


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(list_algorithms("allgather")))
def test_allgather_data_equivalence(algorithm, nranks):
    _, sends, recvs = run_allgather(nranks, 4, algorithm)
    expected = np.concatenate(sends)
    for r in range(nranks):
        assert np.array_equal(recvs[r], expected), (algorithm, r)


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(list_algorithms("bcast")))
def test_bcast_data_equivalence(algorithm, nranks):
    for root in (0, nranks - 1):
        _, bufs = run_bcast(nranks, 6, algorithm, root)
        expected = np.arange(6, dtype=np.int64) + 7
        for r in range(nranks):
            assert np.array_equal(bufs[r], expected), (algorithm, root, r)


# ------------------------------------------- payload-free op streams

#: every registered algorithm, as (collective, algorithm)
ALL_ALGORITHMS = [
    (c, name) for c in COLLECTIVES for name in list_algorithms(c)
]


def _op_key(op):
    """What the engine times of one op: peers, tags, byte counts and
    handle lists (payload contents excluded)."""
    if isinstance(op, Isend):
        return ("isend", op.dest, op.tag, int(np.asarray(op.data).nbytes))
    if isinstance(op, Irecv):
        return ("irecv", op.source, op.tag, op.nbytes)
    if isinstance(op, Wait):
        return ("wait", tuple(op.handles))
    if isinstance(op, LocalCopy):
        return ("local_copy", op.nbytes)
    return (type(op).__name__,)


def _recorded(gen, log):
    """Pass ``gen``'s ops through to the engine, logging each."""
    reply = None
    while True:
        try:
            op = gen.send(reply)
        except StopIteration:
            return
        log.append(_op_key(op))
        reply = yield op


def _run_collective(collective, algorithm, nranks, count, payloads):
    """One collective on every rank; returns the result, each rank's op
    log and the (send, recv) buffers, which start as rank-distinct
    values and a sentinel."""
    bufs = []
    for r in range(nranks):
        if collective == "alltoall":
            n_send = n_recv = nranks * count
        elif collective == "allgather":
            n_send, n_recv = count, nranks * count
        else:
            n_send = n_recv = count
        bufs.append(
            (
                np.arange(n_send, dtype=np.int64) + 1000 * (r + 1),
                np.full(n_recv, -7, dtype=np.int64),
            )
        )
    logs = [[] for _ in range(nranks)]

    def program(rank):
        comm = SimComm(
            rank,
            nranks,
            collectives={collective: algorithm},
            payloads=payloads,
        )
        send, recv = bufs[rank]
        if collective == "alltoall":
            yield from comm.alltoall(send, recv)
        elif collective == "allreduce":
            yield from comm.allreduce(send, recv, op="max")
        elif collective == "allgather":
            yield from comm.allgather(send, recv)
        else:
            yield from comm.bcast(send, root=nranks - 1)

    res = simulate(
        [_recorded(program(r), logs[r]) for r in range(nranks)],
        MPICH_GM,
        detect_races=payloads,
        payloads=payloads,
    )
    return res, logs, bufs


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("collective,algorithm", ALL_ALGORITHMS)
def test_payload_free_comm_emits_identical_ops(
    collective, algorithm, nranks, count
):
    """Same ops, byte counts, LocalCopy charges and wait handle lists
    with and without payloads; without them no buffer is written."""
    full, full_logs, _ = _run_collective(
        collective, algorithm, nranks, count, payloads=True
    )
    free, free_logs, bufs = _run_collective(
        collective, algorithm, nranks, count, payloads=False
    )
    assert free_logs == full_logs
    assert (free.time, free.rank_times, free.stats) == (
        full.time,
        full.rank_times,
        full.stats,
    )
    assert free.ops_processed == full.ops_processed
    for r, (send, recv) in enumerate(bufs):
        assert np.array_equal(
            send, np.arange(send.size, dtype=np.int64) + 1000 * (r + 1)
        )
        assert (recv == -7).all()


# --------------------------------------------------- golden virtual times
#
# Exact pins per algorithm x scenario (4 ranks; alltoall part=8,
# allreduce count=8, allgather block=4, bcast count=8 root=1).  The
# pairwise entries are byte-identical to the pre-registry hard-coded
# implementation — the default schedule's timing must never move.

GOLDEN_TIMES = {
    ("alltoall", "bruck", "hostnet"): 0.00016648000000000005,
    ("alltoall", "bruck", "gmnet"): 2.7144000000000003e-05,
    ("alltoall", "pairwise", "hostnet"): 0.000117192,
    ("alltoall", "pairwise", "gmnet"): 1.5756e-05,
    ("alltoall", "ring", "hostnet"): 0.000117192,
    ("alltoall", "ring", "gmnet"): 1.5756e-05,
    ("alltoall", "scattered", "hostnet"): 9.919200000000001e-05,
    ("alltoall", "scattered", "gmnet"): 1.2756e-05,
    ("allreduce", "recursive-doubling", "hostnet"): 0.00015393600000000003,
    ("allreduce", "recursive-doubling", "gmnet"): 2.2152e-05,
    ("allreduce", "ring", "hostnet"): 0.0004441439999999999,
    ("allreduce", "ring", "gmnet"): 6.402399999999998e-05,
    ("allgather", "linear", "hostnet"): 0.00011309599999999999,
    ("allgather", "linear", "gmnet"): 1.5628e-05,
    ("allgather", "ring", "hostnet"): 0.000224568,
    ("allgather", "ring", "gmnet"): 3.2044e-05,
    ("bcast", "binomial", "hostnet"): 0.000141168,
    ("bcast", "binomial", "gmnet"): 1.9512e-05,
    ("bcast", "linear", "hostnet"): 9.688800000000001e-05,
    ("bcast", "linear", "gmnet"): 1.2756e-05,
}

#: Pairwise alltoall at other rank counts — the PR 1 baseline values,
#: captured from the hard-coded implementation before the registry
#: existed (part=8 int64).
PAIRWISE_BASELINE = {
    ("hostnet", 2): 7.658400000000001e-05,
    ("hostnet", 4): 0.000117192,
    ("hostnet", 7): 0.000178104,
    ("gmnet", 2): 1.0756e-05,
    ("gmnet", 4): 1.5756e-05,
    ("gmnet", 7): 2.3256e-05,
}


@pytest.mark.parametrize(
    "collective,algorithm,scenario", sorted(GOLDEN_TIMES)
)
def test_golden_virtual_time(collective, algorithm, scenario):
    network = get_model(scenario)
    if collective == "alltoall":
        res, _ = run_alltoall(4, 8, algorithm, network)
    elif collective == "allreduce":
        res, _, _ = run_allreduce(4, 8, algorithm, network=network)
    elif collective == "allgather":
        res, _, _ = run_allgather(4, 4, algorithm, network)
    else:
        res, _ = run_bcast(4, 8, algorithm, 1, network)
    golden = GOLDEN_TIMES[(collective, algorithm, scenario)]
    assert res.time == pytest.approx(golden, rel=1e-12), (
        collective,
        algorithm,
        scenario,
    )


@pytest.mark.parametrize("scenario,nranks", sorted(PAIRWISE_BASELINE))
def test_pairwise_default_matches_pr1_baseline(scenario, nranks):
    """The default algorithm's timing is unchanged from before the
    registry refactor (same op sequence, bit-for-bit)."""
    res, _ = run_alltoall(nranks, 8, "pairwise", get_model(scenario))
    assert res.time == PAIRWISE_BASELINE[(scenario, nranks)]

    def default_program(rank):
        # no collectives argument at all: the default suite
        comm = SimComm(rank, nranks)
        sends = np.arange(nranks * 8, dtype=np.int64) + 1000 * rank
        yield from comm.alltoall(sends, np.zeros(nranks * 8, dtype=np.int64))

    res2 = simulate(
        [default_program(r) for r in range(nranks)], get_model(scenario)
    )
    assert res2.time == PAIRWISE_BASELINE[(scenario, nranks)]


# ----------------------------------------------- edge cases + error paths


def _yielded_ops(gen):
    """Drive a collective generator standalone, returning yielded op types."""
    ops = []
    handle = 0
    try:
        op = next(gen)
        while True:
            ops.append(type(op))
            handle += 1
            op = gen.send(handle)
    except StopIteration:
        return ops


def test_empty_alltoall_skips_local_copy():
    """A zero-length partition must not charge the self-partition memcpy."""
    comm = SimComm(0, 1)
    empty = np.zeros(0, dtype=np.int64)
    ops = _yielded_ops(comm.alltoall(empty, empty))
    assert LocalCopy not in ops
    # and with data, the memcpy is charged as before
    comm2 = SimComm(0, 1)
    buf = np.arange(3, dtype=np.int64)
    ops2 = _yielded_ops(comm2.alltoall(buf, np.zeros(3, dtype=np.int64)))
    assert LocalCopy in ops2 and Wait in ops2


@pytest.mark.parametrize("algorithm", sorted(list_algorithms("alltoall")))
def test_alltoall_rejects_indivisible_every_algorithm(algorithm):
    def program():
        comm = SimComm(0, 2, collectives={"alltoall": algorithm})
        yield from comm.alltoall(
            np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
        )

    with pytest.raises(SimulationError, match="not divisible"):
        simulate([program()], MPICH_GM)


@pytest.mark.parametrize("algorithm", sorted(list_algorithms("alltoall")))
def test_alltoall_rejects_mismatched_sizes_every_algorithm(algorithm):
    def program():
        comm = SimComm(0, 2, collectives={"alltoall": algorithm})
        yield from comm.alltoall(
            np.zeros(4, dtype=np.int64), np.zeros(8, dtype=np.int64)
        )

    with pytest.raises(SimulationError, match="differ"):
        simulate([program()], MPICH_GM)


def test_allreduce_rejects_mismatched_sizes():
    def program():
        comm = SimComm(0, 2)
        yield from comm.allreduce(
            np.zeros(4, dtype=np.int64), np.zeros(5, dtype=np.int64)
        )

    with pytest.raises(SimulationError, match="sizes differ"):
        simulate([program()], MPICH_GM)


def test_allreduce_rejects_unknown_op():
    def program():
        comm = SimComm(0, 2)
        yield from comm.allreduce(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), op="xor"
        )

    with pytest.raises(SimulationError, match="unknown reduction op"):
        simulate([program()], MPICH_GM)


def test_allgather_rejects_bad_recv_length():
    def program():
        comm = SimComm(0, 2)
        yield from comm.allgather(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
        )

    with pytest.raises(SimulationError, match="allgather recv length"):
        simulate([program()], MPICH_GM)


def test_bcast_rejects_bad_root():
    def program():
        comm = SimComm(0, 2)
        yield from comm.bcast(np.zeros(4, dtype=np.int64), root=2)

    with pytest.raises(SimulationError, match="root"):
        simulate([program()], MPICH_GM)


def test_zero_length_allreduce_and_bcast():
    res, _, recvs = run_allreduce(4, 0, "recursive-doubling")
    assert recvs[0].size == 0 and res.time >= 0
    res, _, recvs = run_allreduce(4, 0, "ring")
    assert recvs[0].size == 0 and res.time >= 0
    for algorithm in list_algorithms("bcast"):
        res, bufs = run_bcast(4, 0, algorithm, root=1)
        assert all(b.size == 0 for b in bufs) and res.time >= 0


# ------------------------------------ the knob through the cluster runner


def test_run_cluster_collective_knob_equivalence():
    """Interpreter programs produce identical arrays under every
    algorithm choice (the knob changes timing, never data)."""
    from repro.api import Job, Session
    from repro.apps import build_app

    app = build_app("cg", n=16, nranks=4, steps=2, ndots=4, stages=2)
    session = Session(network="gmnet")
    base = session.run(Job(program=app.source, nranks=app.nranks))
    alt = session.run(
        Job(
            program=app.source,
            nranks=app.nranks,
            collective={"allreduce": "ring"},
        )
    )
    for r in range(app.nranks):
        for name in app.check_arrays:
            assert np.array_equal(base.arrays[r][name], alt.arrays[r][name])
    assert base.time != alt.time  # the schedule did change


def test_fft_original_timing_shifts_with_alltoall_algorithm():
    from repro.api import Job, Session
    from repro.apps import build_app

    app = build_app("fft", n=8, nranks=4, steps=1, stages=2)
    session = Session(network=MPICH_GM)
    times = {
        algo: session.measure(
            Job(
                program=app.source,
                nranks=4,
                collective={"alltoall": algo},
            )
        ).time
        for algo in list_algorithms("alltoall")
    }
    assert len(set(times.values())) > 1  # algorithms are distinguishable
    m = session.measure(
        Job(program=app.source, nranks=4, collective="bruck")
    )
    assert "alltoall=bruck" in m.collective

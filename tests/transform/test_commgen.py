"""The Figure 4 communication generator: structure and semantics."""

from repro.lang import builder as b
from repro.lang import parse
from repro.lang.ast_nodes import ArrayRef, Assign, CallStmt, DoLoop, Slice
from repro.lang.unparser import unparse
from repro.transform.commgen import (
    figure4_loop,
    final_wait,
    peer_from_expr,
    peer_to_expr,
    wait_previous_tile,
)
from repro.transform.names import NamePool, SiteNames


def _names() -> SiteNames:
    unit = parse(
        "program t\n  integer :: x\n  x = 1\nend program t"
    ).main
    return SiteNames.allocate(unit, NamePool(unit))


def test_peer_expressions_match_figure4():
    names = _names()
    assert unparse(peer_to_expr(names, 8)) == f"mod({names.me} + {names.j}, 8)"
    assert (
        unparse(peer_from_expr(names, 8))
        == f"mod(8 + {names.me} - {names.j}, 8)"
    )


def test_peer_schedule_is_a_permutation_each_round():
    """Round j: the map rank -> mod(rank+j, NP) is a bijection, and the
    receive side is its exact inverse — the staggering that avoids
    endpoint contention."""
    np_ = 8
    for j in range(1, np_):
        dests = [(me + j) % np_ for me in range(np_)]
        srcs = [(np_ + me - j) % np_ for me in range(np_)]
        assert sorted(dests) == list(range(np_))
        # if me sends to d in round j, then d's computed source is me
        for me in range(np_):
            d = (me + j) % np_
            assert (np_ + d - j) % np_ == me
        assert sorted(srcs) == list(range(np_))


def test_figure4_loop_structure():
    names = _names()
    loop = figure4_loop(
        names,
        4,
        lambda peer: ArrayRef(name="as", subs=[Slice(lo=b.lit(1), hi=b.lit(8))]),
        lambda peer: ArrayRef(name="ar", subs=[Slice(lo=b.lit(1), hi=b.lit(8))]),
        count=8,
        tag_expr=b.lit(3),
    )
    assert isinstance(loop, DoLoop)
    assert loop.var == names.j
    assert unparse(loop.lo) == "1"
    assert unparse(loop.hi) == "3"  # NP - 1
    kinds = [type(s).__name__ for s in loop.body]
    assert kinds == ["Assign", "CallStmt", "Assign", "CallStmt"]
    send = loop.body[1]
    recv = loop.body[3]
    assert send.name == "mpi_isend"
    assert recv.name == "mpi_irecv"
    # argument convention: (buf, count, peer, tag, ierr)
    assert unparse(send.args[1]) == "8"
    assert unparse(send.args[2]) == names.to
    assert unparse(recv.args[2]) == names.from_
    assert unparse(send.args[4]) == names.ierr


def test_figure4_tag_not_shared_between_send_and_recv():
    names = _names()
    tag = b.add(b.var("ix"), 1)
    loop = figure4_loop(
        names,
        4,
        lambda peer: b.var("as"),
        lambda peer: b.var("ar"),
        count=4,
        tag_expr=tag,
    )
    send, recv = loop.body[1], loop.body[3]
    assert send.args[3] is tag
    assert recv.args[3] is not tag
    assert unparse(recv.args[3]) == unparse(tag)


def test_buffer_callbacks_receive_peer_variable():
    names = _names()
    seen = []
    figure4_loop(
        names,
        4,
        lambda peer: seen.append(("send", unparse(peer))) or b.var("as"),
        lambda peer: seen.append(("recv", unparse(peer))) or b.var("ar"),
        count=4,
        tag_expr=b.lit(0),
    )
    assert ("send", names.to) in seen
    assert ("recv", names.from_) in seen


def test_wait_helpers():
    names = _names()
    prev = wait_previous_tile(names)
    assert any(
        isinstance(s, CallStmt) and s.name == "mpi_waitall_recvs" for s in prev
    )
    last = final_wait(names)
    assert any(
        isinstance(s, CallStmt) and s.name == "mpi_waitall" for s in last
    )


def test_generated_loop_unparses_and_reparses():
    names = _names()
    loop = figure4_loop(
        names,
        8,
        lambda peer: ArrayRef(
            name="as", subs=[Slice(lo=b.lit(1), hi=b.lit(4)), b.clone_expr(peer)]
        ),
        lambda peer: ArrayRef(
            name="ar", subs=[Slice(lo=b.lit(1), hi=b.lit(4)), b.clone_expr(peer)]
        ),
        count=4,
        tag_expr=b.lit(1),
    )
    text = unparse(loop)
    wrapped = (
        "program t\n  integer :: x\n\n" +
        "\n".join("  " + l for l in text.strip().splitlines()) +
        "\nend program t\n"
    )
    parse(wrapped)  # must not raise

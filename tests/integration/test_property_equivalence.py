"""Property-based §4 check: equivalence over *random* programs in the
supported pattern family (random geometry, coefficients, tile size, rank
count) x the full runtime registry cross-product (every network
scenario, every alltoall algorithm).  This is the strongest correctness
evidence in the suite — the golden tests pin two programs on two
networks; this pins the family under any registered execution regime:
the transformed data must match whatever schedule delivers the original
alltoall and whatever protocol/offload/congestion rules time it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.collectives import list_algorithms
from repro.runtime.network import get_model, list_models
from repro.transform import TransformOptions, get_variant
from repro.verify import verify_equivalence

#: Strategies over the registries, resolved at import time: models and
#: algorithms registered by the runtime itself all participate.
networks = st.sampled_from(sorted(list_models()))
alltoall_algorithms = st.sampled_from(list_algorithms("alltoall"))


def _direct_program(nranks, planes, rows, c1, c2, c3, swap):
    """A 2-D direct-pattern program with randomized geometry.

    Last-dimension extent = nranks * planes; first dimension = rows.
    ``swap`` puts the node loop outermost (exercising interchange).
    """
    n2 = nranks * planes
    loops = (
        ("iy", "ix") if swap else ("ix", "iy")
    )
    outer, inner = loops
    return f"""
program randk
  integer, parameter :: np = {nranks}
  integer :: as(1:{rows}, 1:{n2})
  integer :: ar(1:{rows}, 1:{n2})
  integer :: it, ix, iy, ierr

  do it = 1, 2
    do {outer} = 1, {dict(ix=rows, iy=n2)[outer]}
      do {inner} = 1, {dict(ix=rows, iy=n2)[inner]}
        as(ix, iy) = ix * {c1} + iy * {c2} + it * {c3} + mynode() * 13
      enddo
    enddo
    call mpi_alltoall(as, {rows * n2} / np, 0, ar, {rows * n2} / np, 0, 0, ierr)
  enddo
end program randk
"""


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nranks=st.sampled_from([2, 3, 4]),
    planes=st.sampled_from([1, 2, 3]),
    rows=st.sampled_from([3, 4, 6, 8]),
    c1=st.integers(1, 50),
    c2=st.integers(1, 50),
    c3=st.integers(0, 20),
    swap=st.booleans(),
    k=st.integers(1, 8),
    network=networks,
    algorithm=alltoall_algorithms,
)
def test_random_direct_programs_equivalent(
    nranks, planes, rows, c1, c2, c3, swap, k, network, algorithm
):
    src = _direct_program(nranks, planes, rows, c1, c2, c3, swap)
    report = get_variant("prepush").run(
        src,
        TransformOptions(tile_size=min(k, rows)),
    )
    if not report.transformed:
        # some (k, geometry) pairs are legitimately rejected (scheme B
        # divisibility); rejection is fine, mis-compilation is not
        assert report.rejections
        return
    eq = verify_equivalence(
        src,
        report.source,
        nranks,
        network=get_model(network),
        skip=report.dead_arrays,
        collective={"alltoall": algorithm},
    )
    assert eq.equivalent, eq.mismatches[:5]


def _indirect_program(n, nranks):
    return f"""
program randind
  integer, parameter :: n = {n}, np = {nranks}
  integer :: as(1:n, 1:n, 1:n)
  integer :: ar(1:n, 1:n, 1:n)
  integer :: at(1:n * n)
  integer :: iy, ix, tx, ty, ierr

  do iy = 1, n
    call producer(iy, at)
    do ix = 1, n * n
      tx = mod(ix - 1, n) + 1
      ty = (ix - 1) / n + 1
      as(tx, ty, iy) = at(ix)
    enddo
  enddo
  call mpi_alltoall(as, n * n * n / np, 0, ar, n * n * n / np, 0, 0, ierr)
end program randind

subroutine producer(step, buf)
  integer :: step
  integer :: buf(1:{n * n})
  integer :: i

  do i = 1, {n * n}
    buf(i) = mod(i * 13 + step * 7 + mynode() * 31, 211)
  enddo
end subroutine producer
"""


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.sampled_from([4, 6, 8]),
    nranks=st.sampled_from([2, 4]),
    k=st.integers(1, 8),
    network=networks,
    algorithm=alltoall_algorithms,
)
def test_random_indirect_programs_equivalent(n, nranks, k, network, algorithm):
    if n % nranks:
        return
    src = _indirect_program(n, nranks)
    report = get_variant("prepush").run(
        src,
        TransformOptions(tile_size=min(k, n)),
    )
    assert report.transformed, [r.reason for r in report.rejections]
    eq = verify_equivalence(
        src,
        report.source,
        nranks,
        network=get_model(network),
        skip=report.dead_arrays,
        collective={"alltoall": algorithm},
    )
    assert eq.equivalent, eq.mismatches[:5]

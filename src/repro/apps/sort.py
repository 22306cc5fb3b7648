"""Sample-sort key redistribution (sorting is §2's first example workload).

In a sample sort, each rank assigns every local key to a destination
bucket and exchanges buckets with ``MPI_ALLTOALL``.  Our kernel models
the *uniform-splitter* case: the bucket layout ``as(key, bucket)`` is
computed with branch-free integer hashing (data-dependent bucket indices
would violate the paper's SPMD restriction — §2 requires no branches in
the code storing into the exchanged array, and our detector enforces
it).  The last dimension is the bucket/destination dimension with one
column per rank, exercising scheme A with single-plane partitions.
"""

from __future__ import annotations

from .base import AppSpec, mix_stages, stage_decls


def sample_sort_exchange(
    keys_per_dest: int = 256,
    nranks: int = 8,
    steps: int = 2,
    stages: int = 3,
) -> AppSpec:
    """Build the bucket-exchange phase of a sample sort.

    ``as`` is ``(keys_per_dest, nranks)``: column ``p`` holds the keys
    this rank routes to rank ``p - 1``.  The alltoall count is
    ``keys_per_dest`` (one column per destination).
    """
    if keys_per_dest < 1:
        raise ValueError("keys_per_dest must be >= 1")
    body = mix_stages(
        "ik * 19 + ip * 257 + it * 11 + mynode() * 41",
        stages,
        result="as(ik, ip)",
        indent="        ",
    )
    source = f"""
program samplesort
  integer, parameter :: nk = {keys_per_dest}, np = {nranks}, nt = {steps}
  integer :: as(1:nk, 1:np)
  integer :: ar(1:nk, 1:np)
  integer :: it, ik, ip, ierr
{stage_decls(stages)}
  do it = 1, nt
    do ik = 1, nk
      do ip = 1, np
{body}      enddo
    enddo
    call mpi_alltoall(as, nk, 0, ar, nk, 0, 0, ierr)
  enddo
end program samplesort
"""
    return AppSpec(
        name="sort",
        description=(
            "sample-sort bucket exchange: branch-free key hashing into a "
            "(keys, destination) matrix (direct pattern, scheme A, "
            "one-plane partitions)"
        ),
        source=source,
        nranks=nranks,
        kind="direct",
        scheme="A",
        check_arrays=("ar", "as"),
        params={"keys_per_dest": keys_per_dest, "steps": steps, "stages": stages},
    )

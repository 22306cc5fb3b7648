#!/usr/bin/env python
"""Quickstart: transform an MPI kernel and watch the overlap win.

Walks the complete workflow on a matrix-transpose kernel (the 2-D shape
of the paper's motivating workloads — the generated communication is the
paper's Figure 4 pairwise exchange, fired once per tile of rows),
driven entirely through the typed :class:`repro.Session` façade:

1. write a mini-Fortran MPI program (compute nest + MPI_ALLTOALL),
2. open a Session on the MPICH-GM (NIC offload) network model,
3. ``session.verify(...)``: transform, read the site report, and check
   §4-style output equivalence on the simulated cluster in one call,
4. print the transformed source,
5. ``session.measure(Job(...))`` both variants and compare timings.

Run:  python examples/quickstart.py
"""

from repro import Job, Session, TransformOptions, VerifyRequest
from repro.harness import format_seconds

SOURCE = """
program quickstart
  integer, parameter :: n = 128, np = 8
  integer :: as(1:n, 1:n)
  integer :: ar(1:n, 1:n)
  integer :: ix, iy, ierr
  integer :: t0, t1, t2, t3

  do ix = 1, n
    do iy = 1, n
      t0 = ix * 23 + iy * 101 + mynode() * 53
      t1 = mod(t0 * 5 + 2, 8191)
      t2 = mod(t1 * 7 + 5, 7919)
      t3 = mod(t2 * 11 + 9, 6151)
      as(ix, iy) = t3
    enddo
  enddo
  call mpi_alltoall(as, n * n / np, 0, ar, n * n / np, 0, 0, ierr)
end program quickstart
"""


def main() -> None:
    # --- 2: one front door; "gmnet" resolves in the scenario registry ----
    session = Session(network="gmnet")

    # --- 3: transform + §4 correctness criterion in one call -------------
    result = session.verify(
        VerifyRequest(
            program=SOURCE, nranks=8, options=TransformOptions(tile_size=16)
        )
    )
    print("== transformation report ==")
    print(result.transform.describe())
    print()

    # --- 4: the pre-pushed program (paper Figure 4 inside the guard) -----
    print("== transformed source ==")
    print(result.transform.unparse())

    assert result.equivalent, result.equivalence.mismatches
    print("== equivalence ==")
    print(
        f"original and transformed programs agree on "
        f"{', '.join(result.equivalence.compared_arrays)}"
    )
    print()

    # --- 5: timing on the offload network ---------------------------------
    original = session.measure(
        Job(program=SOURCE, nranks=8, label="original")
    )
    prepush = session.measure(
        Job(program=result.transform.source, nranks=8, label="prepush")
    )
    print("== virtual timing on mpich-gm ==")
    print(f"original: {format_seconds(original.time)}")
    print(f"prepush:  {format_seconds(prepush.time)}")
    print(f"speedup:  {original.time / prepush.time:.3f}x")
    print(
        f"(time blocked waiting for the network: "
        f"{format_seconds(original.wait_time)} -> "
        f"{format_seconds(prepush.wait_time)})"
    )


if __name__ == "__main__":
    main()

"""Golden test: the direct-pattern transformation of the paper's Figure 2.

Locks in the exact generated source — any change to the code generator
shows up as a readable diff against the paper's Figure 2(b) shape:
tiled guard ``if (mod(ix, K) == 0)``, the previous-tile wait, the
asynchronous send of the just-finalized block, owner-side receives, and
the final wait where the collective used to be.
"""

import textwrap

from tests.programs import direct_1d
from repro.transform import TransformOptions, get_variant

GOLDEN = textwrap.dedent(
    """\
    program figure2
      integer, parameter :: nx = 64, np = 8, nt = 2
      integer :: as(nx)
      integer :: ar(nx)
      integer :: iy, ix, ierr
      integer :: pp_me, pp_j, pp_to, pp_from, pp_c1

      pp_me = mynode()
      do iy = 1, nt
        do ix = 1, nx
          as(ix) = ix * 3 + iy * 100 + mynode() * 7
          if (mod(ix, 8) == 0) then
            ! wait for comm of prev. tile to complete
            call mpi_waitall_recvs(ierr)
            pp_to = (ix - 7 - 1) / 8
            if (pp_to /= pp_me) then
              call mpi_isend(as(ix - 7), 8, pp_to, ix / 8, ierr)
            endif
            if (pp_to == pp_me) then
              do pp_j = 1, 7
                pp_from = mod(8 + pp_me - pp_j, 8)
                call mpi_irecv(ar(1 + pp_from * 8 + (ix - 7 - 1 - pp_me * 8)), 8, pp_from, ix / 8, ierr)
              enddo
              do pp_c1 = ix - 7, ix - 7 + 7
                ar(pp_c1) = as(pp_c1)
              enddo
            endif
          endif
        enddo
        ! wait for the last blocks of data
        call mpi_waitall(ierr)
      enddo
    end program figure2
    """
)


def test_figure2_transformation_golden():
    report = get_variant("prepush").run(
        direct_1d(n=64, nprocs=8, steps=2),
        TransformOptions(tile_size=8),
    )
    assert report.transformed
    assert report.unparse() == GOLDEN


def test_figure2_report_metadata():
    report = get_variant("prepush").run(
        direct_1d(n=64, nprocs=8, steps=2),
        TransformOptions(tile_size=8),
    )
    (site,) = report.sites
    assert site.kind.value == "direct"
    assert site.scheme == "B"
    assert site.tile_size == 8
    assert site.trip == 64
    assert site.ntiles == 8
    assert site.leftover == 0
    assert not site.interchanged
    assert site.comm_rounds == 8
    assert not report.rejections


def test_figure2_transform_is_idempotent_input():
    """The input AST is not mutated: transforming twice gives equal output."""
    src = direct_1d(n=64, nprocs=8, steps=2)
    prepush = get_variant("prepush")
    a = prepush.run(src, TransformOptions(tile_size=8)).unparse()
    b = prepush.run(src, TransformOptions(tile_size=8)).unparse()
    assert a == b


def test_figure2_original_collective_removed():
    report = get_variant("prepush").run(
        direct_1d(),
        TransformOptions(tile_size=8),
    )
    assert "mpi_alltoall" not in report.unparse()

"""Golden test: the indirect-pattern transformation of the paper's Figure 3.

Checks the §3.4 rewrite: the copy loop ℓcp is gone, ``At`` gained the
double-buffer slot dimension, the producer call is redirected to
``at(1, slot)`` by sequence association, and each slab is sent directly
``At -> Ar`` (the transitivity argument), with the previous tile's sends
waited before the bank is reused.
"""

import textwrap

from tests.programs import indirect_3d
from repro.transform import TransformOptions, get_variant

GOLDEN = textwrap.dedent(
    """\
    program indirectk
      integer, parameter :: n = 8, np = 4
      integer :: as(n, n, n)
      integer :: ar(n, n, n)
      integer :: at(n * n, 4)
      integer :: iy, ix, tx, ty, ierr
      integer :: pp_me, pp_j, pp_to, pp_from, pp_c1, pp_c2, pp_c3, pp_slot, pp_s, pp_g, pp_q

      pp_me = mynode()
      do iy = 1, n
        pp_slot = mod(iy - 1, 4) + 1
        call producer(iy, at(1, pp_slot))
        if (mod(iy, 2) == 0) then
          ! wait for the previous tile's sends (bank reuse)
          call mpi_waitall_sends(ierr)
          do pp_s = 1, 2
            pp_g = iy - 1 + (pp_s - 1)
            pp_to = (pp_g - 1) / 2
            if (pp_to /= pp_me) then
              call mpi_isend(at(1, mod(iy / 2 - 1, 2) * 2 + pp_s), 64, pp_to, pp_g, ierr)
            endif
            if (pp_to == pp_me) then
              do pp_j = 1, 3
                pp_from = mod(4 + pp_me - pp_j, 4)
                call mpi_irecv(ar(1, 1, 1 + (pp_from * 2 + (pp_g - 1 - pp_me * 2))), 64, pp_from, pp_g, ierr)
              enddo
              pp_q = 0
              do pp_c3 = 1 + (pp_g - 1), 1 + (pp_g - 1)
                do pp_c2 = 1, 8
                  do pp_c1 = 1, 8
                    pp_q = pp_q + 1
                    ar(pp_c1, pp_c2, pp_c3) = at(pp_q, mod(iy / 2 - 1, 2) * 2 + pp_s)
                  enddo
                enddo
              enddo
            endif
          enddo
        endif
      enddo
      ! wait for the last blocks of data
      call mpi_waitall(ierr)
    end program indirectk

    subroutine producer(step, buf)
      integer :: step
      integer :: buf(64)
      integer :: i

      do i = 1, 64
        buf(i) = mod(i * 13 + step * 7 + mynode() * 31, 1024)
      enddo
    end subroutine producer
    """
)


def test_figure3_transformation_golden(indirect_source):
    report = get_variant("prepush").run(
        indirect_source,
        TransformOptions(tile_size=2),
    )
    assert report.transformed
    assert report.unparse() == GOLDEN


def test_figure3_report_metadata(indirect_source):
    report = get_variant("prepush").run(
        indirect_source,
        TransformOptions(tile_size=2),
    )
    (site,) = report.sites
    assert site.kind.value == "indirect"
    assert site.scheme == "slab"
    assert site.tile_size == 2
    assert site.trip == 8
    assert site.ntiles == 4
    assert site.leftover == 0
    assert site.dead_arrays == ("as",)
    assert any("copy loop" in n for n in site.notes)


def test_figure3_structure(indirect_source):
    report = get_variant("prepush").run(
        indirect_source,
        TransformOptions(tile_size=2),
    )
    text = report.unparse()
    # copy loop removed: As is never assigned anymore
    assert "as(tx, ty, iy)" not in text
    # At expanded with the double-buffer dimension (2K = 4)
    assert "at(n * n, 4)" in text
    # producer redirected by sequence association
    assert "call producer(iy, at(1, pp_slot))" in text
    # the collective is gone
    assert "mpi_alltoall" not in text

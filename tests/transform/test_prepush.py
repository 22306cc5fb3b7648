"""The ``prepush`` pipeline end to end: schemes, options, errors,
rejections."""

import pytest
from tests.programs import direct_1d, direct_2d, indirect_3d, nodeloop_outer

from repro.errors import TransformError
from repro.lang import parse
from repro.lang.ast_nodes import CallStmt, If
from repro.lang.visitor import statements
from repro.transform import TransformOptions, get_variant
from repro.transform.commgen import _ordinal_expr
from repro.lang.unparser import unparse as unparse_node


def transform(program, **knobs):
    """Run the registered ``prepush`` pipeline with these knobs."""
    return get_variant("prepush").run(program, TransformOptions(**knobs))


class TestConstruction:
    def test_bad_tile_size_string(self):
        with pytest.raises(TransformError):
            TransformOptions(tile_size="biggish")

    def test_bad_tile_size_zero(self):
        with pytest.raises(TransformError):
            TransformOptions(tile_size=0)

    def test_bad_interchange(self):
        with pytest.raises(TransformError):
            TransformOptions(interchange="sometimes")


class TestDirectSchemeA:
    def test_scheme_a_detected(self, twod_source):
        report = transform(twod_source, tile_size=4)
        (site,) = report.sites
        assert site.scheme == "A"
        assert site.kind.value == "direct"

    def test_pairwise_loop_present(self, twod_source):
        report = transform(twod_source, tile_size=4)
        text = report.unparse()
        assert "do pp_j = 1, 3" in text  # NP - 1 rounds
        assert "mpi_isend" in text and "mpi_irecv" in text

    def test_sends_sections_of_both_dims(self, twod_source):
        text = transform(twod_source, tile_size=4).unparse()
        # scheme A sends As(tile-rows, peer-partition) as a 2-D section
        assert "call mpi_isend(as(ix - 3:ix, " in text

    def test_leftover_block_generated(self):
        # trip 16, K 5 -> 3 full tiles + leftover 1
        report = transform(direct_2d(n=16, nprocs=4), tile_size=5)
        (site,) = report.sites
        assert site.ntiles == 3
        assert site.leftover == 1
        text = report.unparse()
        assert "leftover" in text
        # leftover block sends sections ending at the loop's upper bound
        assert "as(16 - 0:16" in text or "as(16:16" in text

    def test_no_leftover_when_k_divides(self, twod_source):
        report = transform(twod_source, tile_size=8)
        assert report.sites[0].leftover == 0
        assert "leftover" not in report.unparse()


class TestDirectSchemeB:
    def test_scheme_b_no_leftover_possible(self):
        # scheme B requires K | planes, and planes | trip, so leftover == 0
        for k in (2, 4, 8):
            report = transform(direct_1d(), tile_size=k)
            assert report.sites[0].leftover == 0

    def test_scheme_b_rejects_nondividing_k(self):
        report = transform(direct_1d(), tile_size=3)
        assert not report.transformed
        assert any(
            "does not divide the partition thickness" in r.reason
            for r in report.rejections
        )

    def test_k_larger_than_trip_rejected(self):
        report = transform(direct_1d(n=64), tile_size=1000)
        assert not report.transformed


class TestInterchange:
    def test_auto_interchange_gives_scheme_a(self, nodeloop_source):
        report = transform(nodeloop_source, tile_size=4)
        (site,) = report.sites
        assert site.interchanged
        assert site.scheme == "A"
        assert any("interchanged" in n for n in site.notes)

    def test_never_interchange_gives_scheme_b(self, nodeloop_source):
        report = transform(
            nodeloop_source, tile_size=4, interchange="never"
        )
        (site,) = report.sites
        assert not site.interchanged
        assert site.scheme == "B"

    def test_interchange_swaps_headers(self, nodeloop_source):
        text = transform(nodeloop_source, tile_size=4).unparse()
        # originally "do iy" outer, "do ix" inner; after interchange ix is outer
        ix_pos = text.index("do ix")
        iy_pos = text.index("do iy")
        assert ix_pos < iy_pos


class TestAutoTileSize:
    def test_auto_direct(self, twod_source):
        report = transform(twod_source, tile_size="auto")
        k = report.sites[0].tile_size
        assert 1 <= k <= 16

    def test_auto_respects_scheme_b_divisibility(self):
        report = transform(direct_1d(n=64, nprocs=8), tile_size="auto")
        site = report.sites[0]
        assert site.scheme == "B"
        assert (64 // 8) % site.tile_size == 0


class TestRejections:
    def test_program_without_alltoall(self):
        src = """
program nothing
  integer :: i
  integer :: a(1:4)

  do i = 1, 4
    a(i) = i
  enddo
end program nothing
"""
        report = transform(src)
        assert not report.transformed
        assert report.rejections == []
        assert "no transformable" in report.describe()

    def test_branch_in_nest_rejected(self):
        src = """
program branchy
  integer, parameter :: n = 16, np = 4
  integer :: as(1:n)
  integer :: ar(1:n)
  integer :: i, ierr

  do i = 1, n
    if (i > 4) then
      as(i) = i
    else
      as(i) = -i
    endif
  enddo
  call mpi_alltoall(as, n / np, 0, ar, n / np, 0, 0, ierr)
end program branchy
"""
        report = transform(src, tile_size=2)
        assert not report.transformed
        assert any("conditional" in r.reason for r in report.rejections)

    def test_rejections_deduplicated(self):
        src = """
program branchy
  integer, parameter :: n = 16, np = 4
  integer :: as(1:n)
  integer :: ar(1:n)
  integer :: i, ierr

  do i = 1, n
    if (i > 4) then
      as(i) = i
    endif
  enddo
  call mpi_alltoall(as, n / np, 0, ar, n / np, 0, 0, ierr)
end program branchy
"""
        report = transform(src)
        reasons = [(id(r.call), r.reason) for r in report.rejections]
        assert len(reasons) == len(set(reasons))

    def test_max_sites_limits_work(self):
        src = TestMultiSite.TWO_SITES
        report = transform(src, tile_size=2, max_sites=1)
        assert len(report.sites) == 1
        # a zero budget is refused up front, not silently a no-op
        with pytest.raises(TransformError, match="max_sites"):
            TransformOptions(tile_size=8, max_sites=0)


class TestMultiSite:
    TWO_SITES = """
program twosites
  integer, parameter :: n = 16, np = 4
  integer :: as(1:n)
  integer :: ar(1:n)
  integer :: bs(1:n)
  integer :: br(1:n)
  integer :: i, ierr

  do i = 1, n
    as(i) = i * 2
  enddo
  call mpi_alltoall(as, n / np, 0, ar, n / np, 0, 0, ierr)
  do i = 1, n
    bs(i) = i * 3
  enddo
  call mpi_alltoall(bs, n / np, 0, br, n / np, 0, 0, ierr)
end program twosites
"""

    def test_two_sites_both_transformed(self):
        src = self.TWO_SITES
        report = transform(src, tile_size=2)
        assert len(report.sites) == 2
        names = {(s.send_array, s.recv_array) for s in report.sites}
        assert names == {("as", "ar"), ("bs", "br")}
        # generated names must not collide between the two sites
        text = report.unparse()
        assert text.count("= mynode()") == 2
        assert "pp_me = mynode()" in text
        assert "pp_me2 = mynode()" in text


class TestProlog:
    def test_me_initialized_first(self, fig2_source):
        report = transform(fig2_source, tile_size=8)
        first = report.source.main.body[0]
        assert unparse_node(first).strip() == "pp_me = mynode()"

    def test_generated_declarations_added(self, fig2_source):
        report = transform(fig2_source, tile_size=8)
        text = report.unparse()
        for name in ("pp_me", "pp_j", "pp_to", "pp_from"):
            assert name in text

    def test_existing_ierr_reused(self, fig2_source):
        text = transform(fig2_source, tile_size=8).unparse()
        assert "pp_ierr" not in text  # program already declares ierr


class TestOrdinalExpr:
    def test_lo_one_folds(self):
        assert unparse_node(_ordinal_expr("i", 1)) == "i"

    def test_general_lo(self):
        assert unparse_node(_ordinal_expr("i", 5)) == "i - 5 + 1"

    def test_zero_lo(self):
        # builder folds the subtraction of zero: (i - 0) + 1 == i + 1
        assert unparse_node(_ordinal_expr("i", 0)) == "i + 1"


class TestPrepushConvenience:
    def test_prepush_function(self, fig2_source):
        report = transform(fig2_source, tile_size=8)
        assert report.transformed

    def test_transform_text(self, fig2_source):
        text = transform(fig2_source, tile_size=8).unparse()
        parse(text)  # output reparses

    def test_transform_accepts_ast(self, fig2_source):
        ast = parse(fig2_source)
        report = transform(ast, tile_size=8)
        assert report.transformed
        # caller's AST untouched: it still contains the collective
        assert any(
            isinstance(s, CallStmt) and s.name == "mpi_alltoall"
            for s in statements(ast.main.body)
        )


class TestOutputReparses:
    @pytest.mark.parametrize(
        "builder",
        [direct_1d, direct_2d, nodeloop_outer, indirect_3d],
        ids=["fig2", "2d", "nodeloop", "indirect"],
    )
    def test_roundtrip(self, builder):
        report = transform(builder(), tile_size=2)
        assert report.transformed
        reparsed = parse(report.unparse())
        assert len(reparsed.units) == len(report.source.units)

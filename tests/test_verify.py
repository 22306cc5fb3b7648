"""The equivalence checker itself: it must catch what it claims to catch."""

import pytest

from repro.errors import VerificationError
from repro.api import Job, Session
from repro.runtime.network import IDEAL
from repro.transform.options import TransformOptions
from repro.api import VerifyRequest
from repro.verify import compare_runs, verify_equivalence
from tests.programs import direct_1d

GOOD = direct_1d(n=16, nprocs=4, steps=1)

#: Same program but with a wrong value in one element.
BAD = GOOD.replace("as(ix) = ix * 3", "as(ix) = ix * 4")

#: Same data, different prints.
PRINTS = GOOD.replace(
    "  enddo\nend program",
    "  enddo\n  print *, mynode()\nend program",
)


def test_identical_programs_equivalent():
    report = verify_equivalence(GOOD, GOOD, 4)
    assert report.equivalent
    assert "ar" in report.compared_arrays
    assert report.mismatches == []


def test_data_difference_detected():
    report = verify_equivalence(GOOD, BAD, 4)
    assert not report.equivalent
    assert any("'as'" in m or "'ar'" in m for m in report.mismatches)


def test_print_difference_detected():
    report = verify_equivalence(GOOD, PRINTS, 4)
    assert not report.equivalent
    assert any("printed output differs" in m for m in report.mismatches)


def test_skip_list_respected():
    report = verify_equivalence(GOOD, BAD, 4, skip=("as", "ar"))
    assert report.equivalent
    assert set(report.skipped_arrays) == {"as", "ar"}


def test_explicit_array_selection():
    report = verify_equivalence(GOOD, BAD, 4, arrays=["ar"])
    assert not report.equivalent  # ar is derived from as, so it differs too


def test_missing_requested_array_reported():
    report = verify_equivalence(GOOD, GOOD, 4, arrays=["zz"])
    assert not report.equivalent
    assert any("missing" in m for m in report.mismatches)


def test_shape_mismatch_skipped_not_failed():
    other = GOOD.replace("integer :: ar(1:nx)", "integer :: ar(1:nx, 1:2)")
    # not a valid alltoall partner; just compare runs structurally
    session = Session(network=IDEAL)
    a = session.run(Job(program=GOOD, nranks=4))
    b = session.run(
        Job(
            program=GOOD.replace("integer :: iy, ix", "integer :: iy, ix, zq"),
            nranks=4,
        )
    )
    report = compare_runs(a, b)
    assert report.equivalent  # scalars don't participate; arrays match


def test_check_raises():
    with pytest.raises(VerificationError, match="not equivalent"):
        verify_equivalence(GOOD, BAD, 4, check=True)


def test_speedup_property():
    report = verify_equivalence(GOOD, GOOD, 4)
    assert report.speedup == pytest.approx(1.0)


def test_verify_transform_rejects_untransformable():
    src = """
program plain
  integer :: x

  x = 1
end program plain
"""
    with pytest.raises(VerificationError, match="no transformable"):
        Session().verify(VerifyRequest(program=src, nranks=2))


def test_verify_transform_roundtrip():
    result = Session(network=IDEAL).verify(
        VerifyRequest(
            program=GOOD, nranks=4, options=TransformOptions(tile_size=4)
        )
    )
    assert result.equivalent
    assert result.transform.sites[0].tile_size == 4


def test_verify_transform_options_conflict_raises():
    # TransformOptions is the only spelling of the knobs: the retired
    # tile_size= keyword no longer exists to conflict with it
    with pytest.raises(TypeError, match="tile_size"):
        VerifyRequest(
            program=GOOD, tile_size=4, options=TransformOptions(tile_size=2)
        )


def test_in_flight_race_warning_is_a_mismatch():
    """compare_runs holds the whole §4 rule: a race warning of the
    transformed run fails the check even when the data agree."""
    session = Session(network=IDEAL)
    a = session.run(Job(program=GOOD, nranks=4))
    b = session.run(Job(program=GOOD, nranks=4))
    race = (
        "send buffer of rank 1 (tag 0, 64 B) was modified while the "
        "transfer was in flight"
    )
    b.result.warnings.append(race)
    report = compare_runs(a, b)
    assert not report.equivalent
    assert report.mismatches == [race]
    # the original run's warnings are reported, not counted
    swapped = compare_runs(b, a)
    assert swapped.equivalent
    assert swapped.warnings == [race]

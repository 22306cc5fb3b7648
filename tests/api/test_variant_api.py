"""The variant axis of the Session façade.

Covers construction-time resolution of ``ExecutionContext.variant``,
the new :meth:`Session.transform`, Job-level transformation with
fingerprint provenance, and the ``options``/legacy-kwargs folding
rules of prepare/compare/verify.
"""

import pytest

from repro.api import CompareRequest, ExecutionContext, Job, Session
from repro.apps import build_app
from repro.errors import ReproError, TransformError
from repro.interp.runner import job_fingerprint
from repro.transform.options import TransformOptions
from repro.transform.pipeline import get_variant
from tests.transform.test_pipeline import PARITY, fingerprint


@pytest.fixture(scope="module")
def app():
    return build_app("fft", n=8, nranks=4, steps=1, stages=2)


@pytest.fixture(scope="module")
def indirect_app():
    return build_app("indirect", n=8, nranks=4, stages=2)


class TestConstruction:
    def test_variant_resolved_once_at_construction(self):
        session = Session(variant="no-interchange")
        assert session.variant_pipeline is get_variant("no-interchange")
        assert "no-interchange" in repr(session)

    def test_unknown_variant_rejected_at_construction(self):
        with pytest.raises(TransformError, match="unknown variant"):
            Session(variant="transmogrified")

    def test_context_object_carries_variant(self):
        ctx = ExecutionContext(variant="tile-only")
        assert Session(ctx).variant_pipeline is get_variant("tile-only")


class TestTransform:
    def test_default_variant_is_context_default(self, app):
        rep = Session().transform(app.source)
        assert rep.pipeline == "prepush"
        assert rep.transformed
        assert [p.name for p in rep.passes] == [
            "interchange",
            "tile",
            "commgen",
            "indirect-elim",
        ]

    def test_explicit_variant_and_options(self, app):
        rep = Session().transform(
            app.source,
            variant="tile-only",
            options=TransformOptions(tile_size=2),
        )
        assert rep.pipeline == "tile-only"
        assert rep.sites[0].tile_size == 2

    def test_matches_legacy_compuniformer(self, app):
        """The session's default transform reproduces the frozen output
        of the original monolithic transformer on this app."""
        rep = Session().transform(app.source)
        assert fingerprint(rep) == PARITY["session_default_fft"]


class TestJobVariant:
    def test_job_variant_transforms_before_simulating(self, app):
        session = Session()
        transformed = session.transform(app.source)
        via_job = session.measure(
            Job(program=app.source, nranks=app.nranks, variant="prepush")
        )
        direct = session.measure(
            Job(program=transformed.source, nranks=app.nranks)
        )
        assert via_job.time == direct.time
        assert via_job.messages == direct.messages

    def test_job_without_variant_runs_as_given(self, app):
        session = Session()
        plain = session.measure(Job(program=app.source, nranks=app.nranks))
        treated = session.measure(
            Job(program=app.source, nranks=app.nranks, variant="prepush")
        )
        # the prepush rewrite replaces the alltoall with point-to-point
        # traffic: message counts must differ if the transform ran
        assert plain.messages != treated.messages

    def test_job_variant_identity_reaches_fingerprint(self, app):
        session = Session()
        plain = session.cluster_job(
            Job(program=app.source, nranks=app.nranks)
        )
        treated = session.cluster_job(
            Job(program=app.source, nranks=app.nranks, variant="original")
        )
        assert plain.variant is None
        assert treated.variant is not None
        # identical program text, different provenance, different key
        assert job_fingerprint(plain) != job_fingerprint(treated)

    def test_job_options_without_variant_rejected(self, app):
        with pytest.raises(ReproError, match="Job.variant"):
            Session().cluster_job(
                Job(
                    program=app.source,
                    nranks=app.nranks,
                    options=TransformOptions(tile_size=2),
                )
            )


class TestPrepareAndCompare:
    def test_prepare_surfaces_pass_chain(self, app):
        pair = Session().compare(app)
        assert [p.name for p in pair.transform.passes] == [
            "interchange",
            "tile",
            "commgen",
            "indirect-elim",
        ]
        assert "pipeline prepush" in pair.transform.describe_passes()
        # compare transforms through the session memo: the intermediate
        # texts are Session.transform's to capture
        assert Session().transform(app.source).snapshots

    def test_prepare_inherits_context_variant(self, indirect_app):
        session = Session(variant="tile-only")
        pair = session.compare(indirect_app)
        # tile-only cannot transform the indirect kernel; compare must
        # measure it as an unchanged program, not raise
        assert not pair.transform.transformed
        assert pair.original.time == pair.prepush.time

    def test_request_variant_overrides_context(self, app):
        session = Session(variant="tile-only")
        pair = session.compare(CompareRequest(app=app, variant="prepush"))
        assert pair.transform.pipeline == "prepush"

    def test_options_and_legacy_kwargs_conflict(self, app):
        # TransformOptions is the only spelling of the knobs: the
        # retired tile_size= field no longer exists to conflict with it
        with pytest.raises(TypeError, match="tile_size"):
            CompareRequest(
                app=app,
                tile_size=4,
                options=TransformOptions(tile_size=2),
            )

    def test_compare_with_options_object(self, app):
        pair = Session().compare(
            CompareRequest(app=app, options=TransformOptions(tile_size=2))
        )
        assert pair.equivalent
        assert pair.transform.sites[0].tile_size == 2


class TestUnchangedPolicy:
    """Full-rewrite pipelines must transform; partial ones may not."""

    SITELESS = """
program plain
  integer :: x

  x = 1
end program plain
"""

    def test_full_custom_pipeline_raises_on_siteless_program(self):
        from repro.transform.pipeline import (
            CommGenPass,
            IndirectElimPass,
            Pipeline,
            TilePass,
        )
        from repro.apps.base import AppSpec

        app = AppSpec(
            name="plain",
            description="no sites",
            source=self.SITELESS,
            nranks=2,
            kind="direct",
            scheme="A",
            check_arrays=(),
        )
        full = Pipeline(
            (TilePass(), CommGenPass(), IndirectElimPass()),
            name="full-custom",
        )
        with pytest.raises(ReproError, match="not transformed"):
            Session().compare(CompareRequest(app=app, variant=full))
        # the same pipeline marked partial measures the program as-is
        partial = Pipeline(
            (TilePass(), CommGenPass(), IndirectElimPass()),
            name="partial-custom",
            partial=True,
        )
        pair = Session().compare(CompareRequest(app=app, variant=partial))
        assert not pair.transform.transformed

    def test_job_variant_raises_when_nothing_transforms(self):
        with pytest.raises(ReproError, match="transformed nothing"):
            Session().measure(
                Job(program=self.SITELESS, nranks=2, variant="prepush")
            )

    def test_job_partial_variant_with_rejection_raises(self, app):
        with pytest.raises(ReproError, match="transformed nothing"):
            Session().measure(
                Job(
                    program=app.source,
                    nranks=app.nranks,
                    variant="tile-only",
                    options=TransformOptions(tile_size=1000),
                )
            )

    def test_job_partial_variant_unchanged_is_ok(self, indirect_app):
        m = Session().measure(
            Job(
                program=indirect_app.source,
                nranks=indirect_app.nranks,
                variant="tile-only",
            )
        )
        assert m.time > 0


class TestVerifyVariant:
    def test_verify_with_explicit_variant(self, app):
        from repro.api import VerifyRequest

        result = Session().verify(
            VerifyRequest(
                program=app.source,
                nranks=app.nranks,
                variant="no-interchange",
            )
        )
        assert result.equivalent
        assert result.transform.pipeline == "no-interchange"

    def test_verify_untransforming_variant_raises(self, indirect_app):
        from repro.api import VerifyRequest
        from repro.errors import VerificationError

        with pytest.raises(VerificationError, match="no transformable"):
            Session().verify(
                VerifyRequest(
                    program=indirect_app.source,
                    nranks=indirect_app.nranks,
                    variant="tile-only",
                )
            )

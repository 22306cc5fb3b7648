"""Unparse/parse round-trip over every real source in the repository:
the apps, their transformed versions, and the conftest programs."""

import pytest

from repro.apps import APP_BUILDERS, build_app
from repro.lang import parse, unparse
from repro.transform import TransformOptions, get_variant

SMALL = {
    "figure2": dict(n=32, nranks=4, steps=1, stages=2),
    "indirect": dict(n=8, nranks=4, stages=2),
    "indirect-external": dict(n=8, nranks=4, stages=2),
    "fft": dict(n=8, nranks=4, steps=1, stages=2),
    "sort": dict(keys_per_dest=8, nranks=4, steps=1, stages=2),
    "stencil": dict(n=8, nranks=4, steps=1),
    "lu": dict(n=8, nranks=4, steps=1),
    "nodeloop": dict(n=8, nranks=4, steps=1, stages=2),
    "cg": dict(n=16, nranks=4, steps=2, ndots=4, stages=2),
    "halo": dict(n=8, nranks=4, steps=2, stages=2),
}

#: the collective-bound apps have no alltoall site to transform
UNTRANSFORMABLE = {"cg", "halo"}


@pytest.mark.parametrize("name", sorted(APP_BUILDERS))
def test_app_roundtrip(name):
    """parse(unparse(parse(s))) == parse(s) — the DESIGN.md §5 invariant."""
    app = build_app(name, **SMALL[name])
    ast1 = parse(app.source)
    text = unparse(ast1)
    ast2 = parse(text)
    assert ast1 == ast2
    # and unparse is a fixed point after one normalization
    assert unparse(ast2) == text


def _strip_comments(text: str) -> str:
    return "\n".join(
        l for l in text.splitlines() if not l.lstrip().startswith("!")
    )


@pytest.mark.parametrize("name", sorted(set(APP_BUILDERS) - UNTRANSFORMABLE))
def test_transformed_app_roundtrip(name):
    """Generated code must round-trip too (it is fed back to the
    interpreter as text in the CLI workflow).  The lexer discards
    comments, so the comparison is modulo the annotation comments the
    code generator emits."""
    app = build_app(name, **SMALL[name])
    report = get_variant("prepush").run(
        app.source,
        TransformOptions(tile_size=2),
        oracle=app.oracle,
    )
    assert report.transformed
    text = report.unparse()
    ast = parse(text)
    assert _strip_comments(unparse(ast)) == _strip_comments(text)
    # and the reparse is stable
    assert parse(unparse(ast)) == ast

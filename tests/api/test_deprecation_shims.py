"""The legacy kwargs entry points must warn and agree with the Session
path — they are shims, not parallel implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Job, Session
from repro.apps import build_app
from repro.harness.runner import measure, run_pair
from repro.interp.runner import run_cluster
from tests.programs import direct_2d

NRANKS = 4


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(network="gmnet")


def test_run_cluster_warns_and_matches_session(session):
    src = direct_2d()
    with pytest.warns(DeprecationWarning, match="run_cluster"):
        legacy = run_cluster(src, NRANKS, "gmnet")
    new = session.run(Job(program=src, nranks=NRANKS))
    assert legacy.time == new.time
    assert legacy.outputs == new.outputs
    for rank in range(NRANKS):
        for name in legacy.arrays[rank]:
            np.testing.assert_array_equal(
                legacy.arrays[rank][name], new.arrays[rank][name]
            )


def test_measure_warns_and_matches_session(session):
    src = direct_2d()
    with pytest.warns(DeprecationWarning, match="measure"):
        legacy = measure(src, NRANKS, "gmnet", label="x")
    new = session.measure(Job(program=src, nranks=NRANKS, label="x"))
    assert legacy.to_dict() == new.to_dict()


def test_run_pair_warns_and_matches_session(session):
    from repro import CompareRequest

    app = build_app("fft", nranks=NRANKS, n=32, steps=1, stages=2)
    with pytest.warns(DeprecationWarning, match="run_pair"):
        legacy = run_pair(app, "gmnet", tile_size=4, verify=False)
    new = session.compare(
        CompareRequest(app=app, tile_size=4, verify=False)
    )
    assert legacy.original.to_dict() == new.original.to_dict()
    assert legacy.prepush.to_dict() == new.prepush.to_dict()
    assert legacy.speedup == new.speedup

"""The benchmark's layer tracer still binds to the sweep stages.

``perfbench/tracer.py`` times each layer from outside ``src/`` by
rebinding its entry points by identity.  A refactor that routes the
sweep around one of them would silently zero that layer's metrics; this
test runs a tiny cold-then-warm verified sweep under the tracer and
checks every harness span saw calls.
"""

from __future__ import annotations

from perfbench.tracer import Tracer
from repro import Session
from repro.harness.sweep import SweepSpec


def test_tracer_binds_every_harness_span(tmp_path):
    spec = SweepSpec(
        name="tracer-bind",
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        tile_sizes=(4,),
        networks=("gmnet",),
        verify=True,
    )
    tracer = Tracer()
    with tracer.tracing():
        with Session(cache_dir=tmp_path / "cache") as session:
            cold = session.sweep(spec)
            warm = session.sweep(spec)
    assert cold.stats.total_simulated > 0
    assert warm.stats.total_simulated == 0
    for span in (
        "harness.sweep",
        "harness.expand",
        "harness.fingerprint",
        "harness.cache.get",
        "harness.cache.put",
        "harness.verify",
    ):
        assert tracer.calls(span) > 0, span
    assert tracer.calls("harness.sweep") == 2

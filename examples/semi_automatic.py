#!/usr/bin/env python
"""Domain scenario: the semi-automatic workflow of §3.1.

The paper's indirect-pattern test program computes its data inside a
procedure whose source is unavailable (a compiled library).  The
analysis then cannot prove the producer writes the temporary array and
must *query the user*.  This example shows the whole loop:

1. a RecordingOracle wraps the user's answers and logs every query,
2. the transformation proceeds on a "yes" answer,
3. equivalence is verified against a Python implementation of the
   library routine registered as an external,
4. the same program with a "no" answer is (correctly) left alone.

Run:  python examples/semi_automatic.py
"""

from repro import Session, VerifyRequest
from repro.analysis.callinfo import DictOracle, RecordingOracle
from repro.apps import indirect_external_kernel
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.transform import TransformOptions

#: the figure-1 regime: producer work comparable to 2005-era kernels
COST = DEFAULT_COST_MODEL.scaled(8.0)


def main() -> None:
    app = indirect_external_kernel(
        n=32, nranks=8, stages=6, work_per_element=500e-9
    )
    print("workload:", app.description)
    print()

    # --- the user answers "producer writes its 2nd argument" -------------
    # one Session.verify call transforms (querying the oracle) and runs
    # the §4 equivalence check on the simulated cluster
    session = Session(network="gmnet", cost_model=COST)
    oracle = RecordingOracle(DictOracle({"producer": {1}}))
    result = session.verify(
        VerifyRequest(
            program=app.source,
            nranks=app.nranks,
            options=TransformOptions(tile_size=4),
            oracle=oracle,
            externals=app.externals,
        )
    )
    report = result.transform

    print("== user queries the analysis needed ==")
    for q in oracle.queries:
        answer = "yes" if q.answer else "no"
        print(
            f"  may procedure '{q.procedure}' write argument "
            f"{q.arg_index + 1}?  ->  {answer}"
        )
    print()
    print("== site report ==")
    print(report.describe())
    print()

    assert result.equivalent, result.equivalence.mismatches
    print(
        f"equivalent: yes   "
        f"(speedup on mpich-gm: {result.speedup:.3f}x)"
    )
    print()

    # --- the user answers "no" -------------------------------------------
    denied = session.transform(
        app.source,
        options=TransformOptions(tile_size=4),
        oracle=DictOracle({"producer": set()}, default=False),
    )
    print("== with the user answering 'no' ==")
    print(denied.describe())
    assert not denied.transformed


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Domain scenario: when does pre-pushing pay on *your* cluster?

A user porting codes across interconnects wants to know whether the
transformation is worth applying.  This example sweeps a grid of
network parameters (wire bandwidth x offload capability) for the ADI
stencil workload and prints a speedup matrix — the crossover the paper
describes (§1: the approach needs NICs that progress transfers on their
own) appears as the offload column beating the host-driven column.

Run:  python examples/network_study.py
"""

from repro import CompareRequest, Session, TransformOptions
from repro.apps import adi_sweep
from repro.harness import Table
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.network import MPICH_GM


def main() -> None:
    # kernels doing realistic work per element: a session-wide cost model
    session = Session(cost_model=DEFAULT_COST_MODEL.scaled(4.0))
    app = adi_sweep(n=64, nranks=8, steps=2)
    prepared = session.prepare(
        CompareRequest(app=app, options=TransformOptions(tile_size=8))
    )

    table = Table(
        title="prepush speedup vs wire speed and offload (adi stencil)",
        columns=["wire", "offload_speedup", "host_driven_speedup"],
    )
    for factor in (0.5, 1, 2, 4):
        byte_time = MPICH_GM.byte_time * factor
        offload = MPICH_GM.with_(
            name=f"offload-x{factor}", byte_time=byte_time
        )
        host = MPICH_GM.with_(
            name=f"host-x{factor}",
            byte_time=byte_time,
            offload=False,
            host_byte_time=byte_time,
        )
        a = prepared.run_on(offload)
        b = prepared.run_on(host)
        table.add(f"{250 / factor:.0f} MB/s", a.speedup, b.speedup)

    print(table.render())
    print()
    print(
        "reading: the offload column rewards pre-pushing as the wire\n"
        "slows (more to hide); the host-driven column stays ~1.0 or\n"
        "below — without NIC offload there is nothing to overlap with,\n"
        "which is the paper's premise for targeting RDMA interconnects."
    )


if __name__ == "__main__":
    main()

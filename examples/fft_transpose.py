#!/usr/bin/env python
"""Domain scenario: pre-pushing a distributed FFT's transpose step.

The multi-dimensional FFT is one of the algorithm classes the paper's
introduction motivates.  This example builds the FFT-transpose workload,
shows the scheme-A transformation (the paper's Figure 4 pairwise
exchange fires once per tile of rows), and sweeps the tile size to find
the sweet spot — exactly the tuning loop a user of the tool would run.

Run:  python examples/fft_transpose.py
"""

from repro import CompareRequest, Session, TransformOptions
from repro.apps import fft_transpose
from repro.harness import Table, format_seconds


def main() -> None:
    session = Session(network="gmnet")
    app = fft_transpose(n=96, nranks=8, steps=1, stages=6)
    print(f"workload: {app.description}\n")

    # show what the tool does to it
    prepared = session.prepare(
        CompareRequest(app=app, options=TransformOptions(tile_size=8))
    )
    site = prepared.transform.sites[0]
    print(
        f"transformed: {site.kind.value} pattern, scheme {site.scheme}, "
        f"{site.ntiles} tiles of K={site.tile_size}"
    )
    print("communication code generated per tile (paper Figure 4):\n")
    text = prepared.transform.unparse()
    in_guard = False
    for line in text.splitlines():
        if "mod(ix, 8) == 0" in line:
            in_guard = True
        if in_guard:
            print(f"    {line.strip()}")
        if in_guard and "endif" in line:
            break
    print()

    # tile-size tuning sweep
    n = app.params["n"]
    table = Table(
        title=f"tile-size sweep on mpich-gm ({n}x{n} transpose, 8 ranks)",
        columns=["K", "time", "speedup"],
    )
    base = None
    for k in (1, 2, 4, 8, 16, 32, 64):
        pair = session.compare(
            CompareRequest(
                app=app, options=TransformOptions(tile_size=k), verify=False
            )
        )
        if base is None:
            base = pair.original.time
        table.add(k, format_seconds(pair.prepush.time), base / pair.prepush.time)
    table.notes.append(f"original (blocking alltoall): {format_seconds(base)}")
    print(table.render())


if __name__ == "__main__":
    main()

"""Start ``repro-cli serve`` in this process, with the benchmark's probes.

Usage::

    python3 perfbench/serve_launcher.py --store DIR --out FILE [--trace]

This is ``repro-cli serve --port 0 --store DIR`` plus two signals the
client sends around its timed section.  ``SIGUSR1`` (the section
begins) starts sampling the host speed (:mod:`calibrate`) in the
server and writes the probe totals to ``FILE.start``; ``SIGUSR2`` (it
ends) stops sampling and writes the sampler's record and the probe
totals to ``FILE.end``.  With ``--trace`` the layer probes of
:mod:`layers` are installed before the server starts; without it the
probe totals are empty.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys


def _write_json(path: str, doc) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import calibrate
    from repro import cli
    from layers import Probes
    probes = Probes()
    if args.trace:
        probes.install()
    # The sampler runs in the main thread (the event loop), while the
    # job threads simulate; it holds the interpreter lock for each
    # kernel call, so the simulations pause for it as they would in a
    # single-threaded worker.
    sampler = calibrate.Sampler()

    def begin(*_) -> None:
        sampler.__enter__()
        _write_json(args.out + ".start", {"layers": probes.snapshot()})

    def end(*_) -> None:
        sampler.__exit__()
        _write_json(args.out + ".end", {"layers": probes.snapshot(),
                                        "sampler": sampler.record()})

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)
    return cli.main(["serve", "--port", "0", "--store", args.store])


if __name__ == "__main__":
    sys.exit(main())

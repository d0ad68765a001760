"""One benchmark process: a warm-up, a set-up, or a measured run.

``run.py`` starts this script as ``python child.py '<json args>'`` with
``PYTHONPATH`` pointing at the program's ``src``.  The clock starts before
anything is imported, so set-up time covers importing the program,
generating the inputs, building the system and its first tick.  The last
line of standard output is a JSON object with the results.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _warm() -> dict:
    """Import everything once: compiles bytecode and the optional kernels."""
    import numpy

    import repro.validate  # noqa: F401
    from repro.engine import ckernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ckernels": ckernels.available(),
    }


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    if args["mode"] == "warm":
        print(json.dumps(_warm()))
        return 0

    import workloads

    tracer = arenas = None
    if args["trace"]:
        from tracer import Tracer, layer_targets

        tracer = Tracer()
        arenas = tracer.track_arenas()
        tracer.install(layer_targets())
    case = workloads.setup(args["workload"], args["seed"], args["seconds"], args["quick"])
    setup_s = time.perf_counter() - T0
    # Set-up time in reference-machine time, like the window's times.
    probe = workloads.SpeedProbe()
    scale = statistics.median(probe.scale() for _ in range(5))
    out = {"setup_s": setup_s * scale, "raw_setup_s": setup_s}
    try:
        if args["mode"] == "run":
            out.update(workloads.measure(case, args["seconds"], tracer, arenas))
    finally:
        if case.coordinator is not None:
            # Stops the shard workers and removes their shared-memory rings
            # (a no-op when the measured window already did).
            case.coordinator.shutdown(case.runtime)
    if tracer is not None and args["mode"] == "run":
        from tracer import span_metrics

        layers = span_metrics(tracer)
        layers.update(out["sim"])
        layers["trace.coverage"] = tracer.covered_s / out["wall_s"]
        out["layers"] = layers
        if args.get("spans"):
            out["spans_written"] = tracer.write_spans(
                args["spans"], workload=args["workload"], seed=args["seed"]
            )
        tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

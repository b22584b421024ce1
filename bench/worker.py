"""One benchmark process: set up capsym, then optionally run one pass.

Usage: python3 bench/worker.py SPEC.json

SPEC holds ``mode`` ("setup" or "pass"), ``config`` (validated during
set-up), ``ops`` (CLI argument lists), ``trace``, ``level_solution``,
``roundtrip`` and ``result``, the path the worker writes its JSON result
to.  The harness starts one worker per sample, so each pass has its own
peak memory.  capsym is imported from ``src`` through PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _run_op(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _roundtrip_exact(path):
    from capsym.harmonic import HarmonicSolution
    copy = path + ".reloaded"
    HarmonicSolution.load(path).save(copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    return same


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import capsym.cli as cli
    cli.RunConfig.from_path(spec["config"])
    result = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            import capsym
            import layers
            import spans
            tracer = spans.Tracer()
            modules = [capsym] + [getattr(capsym, m) for m in (
                "cli", "conformal", "criteria", "geometry", "harmonic",
                "identities", "levelset")]
            spans.instrument(tracer, modules, layers.NOTES)
        rcs = []
        t0 = time.perf_counter()
        for argv in spec["ops"]:
            rcs.append(_run_op(cli, argv))
        t1 = time.perf_counter()
        result.update(wall_s=t1 - t0, rcs=rcs)
        if tracer is not None:
            import checks
            metrics, levels = layers.summarize(tracer.spans, t0, t1)
            level_misfit = 0.0
            if levels:
                with open(spec["level_solution"], encoding="utf-8") as fh:
                    level_misfit = checks.level_misfit(json.load(fh), levels)
            metrics["levelset.level_misfit"] = level_misfit
            result["layers"] = metrics
        result["roundtrip"] = [_roundtrip_exact(p) for p in spec["roundtrip"]]

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

"""One process of the sweep-nsw-circle workload.

usage: python perfbench/sweep_worker.py <spec.json> <result.json>

The spec names a scenario config, a list of ``[noise level, noise seed]``
points, the seconds to measure and whether to trace (every second point is
traced, so traced and untraced points interleave).  The worker imports the program,
loads the config, fills the forward cache with one ``simulate_scenario``
(timed as set-up, not as a point) and then runs ``simulate_scenario`` plus
``reconstruct_scenario`` on the points until the next one is expected to
end more than half a point past the deadline.
"""

import dataclasses
import json
import statistics
import sys
import time


def run(spec):
    t0 = time.perf_counter()  # the program's import is part of set-up
    import numpy as np
    from attenpat import experiments

    t1 = time.perf_counter()
    with open(spec["config"]) as fh:
        base = experiments.ScenarioConfig.from_dict(json.load(fh))
    t2 = time.perf_counter()
    import hostspeed  # not part of set-up: it samples the host's speed around the fill

    fill_refs = [hostspeed.reference_s()]
    t3 = time.perf_counter()
    experiments.simulate_scenario(base)
    t4 = time.perf_counter()
    fill_refs.append(hostspeed.reference_s())
    out = {"import_s": t1 - t0, "config_s": t2 - t1, "fill_s": t4 - t3,
           "fill_ref_s": fill_refs, "points": [], "dump": None}
    unrestored = []

    tr = None
    if spec["trace"]:
        import tracer

        tr = tracer.Tracer()
    durations = []
    deadline = time.perf_counter() + spec["seconds"]
    for i, (level, seed) in enumerate(spec["points"]):
        if durations and time.perf_counter() + statistics.median(durations) / 2 > deadline:
            break
        traced = spec["trace"] and i % 2 == 1
        rec = {"scenario": i, "level": level, "seed": seed, "traced": traced,
               "ref_s": [hostspeed.reference_s()]}  # the host's speed just before
        if traced:
            tracer.install(tr)
            tr.scenario = i
        try:
            config = dataclasses.replace(base, noise_level=level, seed=seed)
            s0 = time.perf_counter()
            pa, phantom, runtimes = experiments.simulate_scenario(config)
            s1 = time.perf_counter()
            result = experiments.reconstruct_scenario(config, pa, phantom, runtimes)
            s2 = time.perf_counter()
            rec.update(
                simulate_s=s1 - s0,
                reconstruct_s=s2 - s1,
                errors=result.errors,
                finite=all(bool(np.isfinite(img.values).all())
                           for img in result.reconstructions.values()),
            )
            durations.append(s2 - s0)
        except Exception as exc:  # a failed point is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                unrestored += tr.uninstall()
        out["points"].append(rec)
    if tr is not None:
        out["dump"] = dict(tr.dump(), unrestored=unrestored)
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)

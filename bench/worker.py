"""One benchmark process: time set-up, or run repetitions of a workload.

``run.py`` starts this script in a fresh interpreter with single-threaded
BLAS settings and ``src`` on the import path, and reads the JSON object
it prints as its last line. Modes:

* ``setup``: import sgslab and load the workload's config and inputs.
* ``run``: repeat the workload through ``sgslab.cli.main`` until the timed
  study time reaches ``--seconds``, timing the reference kernel
  (``reference.py``) before the first repetition and after each one; with
  ``--trace-file`` every layer's public functions are wrapped and the spans
  are saved there.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from before the first sgslab import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import ORACLE_CHAIN, ORACLE_H3, SEARCH_CHAIN, SEARCH_H3, WORKLOADS, rep_seed  # noqa: E402


def setup(workload) -> dict:
    """Time to import sgslab and load the workload's config and inputs."""
    import sgslab.cli as cli
    from sgslab.hamiltonians import IsingSpec, build_ising, load_qubit_hamiltonian

    argv = workload.invocations(Path("unused"), 0)
    for _, args in argv:
        cli.build_parser().parse_args(args)
    if workload.kind == "oracle":
        build_ising(IsingSpec.chain(SEARCH_CHAIN, 1.0, SEARCH_H3))
        build_ising(IsingSpec.chain(ORACLE_CHAIN, 1.0, ORACLE_H3))
    else:
        loaded = cli.load_config(Path(workload.config))
        for item in loaded.raw.get("inputs", []):
            load_qubit_hamiltonian(loaded.config_dir / item["path"])
    return {"setup_s": time.perf_counter() - T0, "sgslab": cli.__file__}


def _oracle_caches(modules) -> list:
    """Every lru_cache of sgslab: the dense-oracle caches a CLI user starts
    without on every run."""
    found = []
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and value not in found:
                found.append(value)
    return found


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(workload, seed: int, seconds: float, out_root: Path, trace_file: str | None) -> dict:
    import reference
    import sgslab.cli as cli

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sgslab"]
    caches = _oracle_caches(modules)
    tracer = None
    if trace_file:
        from layers import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    reference.kernel_s()  # warm-up
    base_kb = _max_rss_kb()  # high-water mark of the imported, idle interpreter
    gauges = [reference.gauge()]  # gauges[i] and gauges[i + 1] bracket repetition i
    reps = []
    studied = 0.0
    while studied < seconds:
        rep = len(reps)
        rep_dir = out_root / f"rep{rep:03d}"
        exit_codes = {}
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.current_rep = rep
            root = tracer.open(ROOT_SPAN)
        t0 = time.perf_counter()
        for label, argv in workload.invocations(rep_dir, rep_seed(seed, rep)):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    exit_codes[label] = cli.main(argv)
            except Exception:  # a crash fails this repetition's points, not the run
                traceback.print_exc(file=sys.stderr)
                exit_codes[label] = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        gauges.append(reference.gauge())
        studied += elapsed
        reps.append({"dir": str(rep_dir), "study_s": elapsed, "exit_codes": exit_codes,
                     "gauge_s": statistics.median(gauges[-2] + gauges[-1])})
    peak_kb = _max_rss_kb()
    result = {
        "reps": reps,
        "peak_rss_mb": peak_kb / 1024.0,
        "study_rss_mb": (peak_kb - base_kb) / 1024.0,
        "sgslab": cli.__file__,
    }
    if tracer is not None:
        from layers import summarize

        tracer.uninstall()
        result["layers"] = summarize(tracer)
        tracer.save(trace_file)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload)
    else:
        result = run(workload, args.seed, args.seconds, Path(args.out), args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

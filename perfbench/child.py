"""One benchmark sample: a dwropt command in this fresh process.

    python3 perfbench/child.py RESULT_JSON SPAWN_TIME TRACE MAX_CYCLES \
        COMMAND CONFIG OUTDIR SEED

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``wall_s`` and
``setup_s`` include interpreter start-up and imports.  MAX_CYCLES, when not
0, overrides ``[optimizer] max_cycles`` in a copy of CONFIG written to
OUTDIR.  COMMAND is a ``dwropt`` subcommand, run through ``cli.main``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    result_path, spawn, trace, max_cycles, command, config, outdir, seed = argv
    spawn = float(spawn)
    from dwropt import cli

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    marks = {"estimator_s": 0.0}

    def hook(name, on_return):
        """Wrap ``cli.<name>`` (the binding the CLI looks up) so that
        ``on_return(args, result, start, end)`` sees every call."""
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            start = time.monotonic()
            out = fn(*args, **kwargs)
            on_return(args, out, start, time.monotonic())
            return out

        setattr(cli, name, wrapper)

    def setup_done(args, model, start, end):
        cfg, problem = args
        marks.setdefault("setup_s", end - spawn)
        marks["n_cells"] = problem.hierarchy.n_sampling
        marks["stop_fraction"] = cli.parse_quantity(cfg.get("optimizer", "stop_fraction", "0.05"))
        marks["max_cycles"] = int(cfg.get("optimizer", "max_cycles", "15"))

    def estimator_done(args, out, start, end):
        marks["estimator_s"] += end - start

    def keep_qoi(args, err, start, end):
        marks["j_of_U"], marks["j_reference"] = err.j_of_U, err.j_reference

    hook("build_initial_model", setup_done)
    hook("run_optimization", estimator_done)
    hook("error_identity", estimator_done)
    hook("estimate_once", keep_qoi)

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if max_cycles != "0":
        cfg = cli.ExperimentConfig.from_ini(config)
        cfg.set("optimizer", "max_cycles", max_cycles)
        config = str(out / "bench_config.ini")
        Path(config).write_text(cfg.to_ini_text(), newline="\n")

    code = cli.main([command, config, "--out", str(out), "--seed", seed])
    end = time.monotonic()

    result = dict(
        marks,
        exit_code=code,
        wall_s=end - spawn,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

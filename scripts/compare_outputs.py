"""Byte comparison of the outputs of two dwropt checkouts.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Runs the fixed command set ``RUNS`` once per checkout, one process at a time,
with that checkout's ``src`` on ``PYTHONPATH``, in a temporary directory.
Both sides read the shipped configs of CHANGE_DIR, with the overrides of each
run written into a copy.  Every file a run leaves in its output directory is
compared byte for byte; of ``report.txt`` only the lines above the phase
timings are compared (reference value, stop reason, cycle count and the
per-cycle block), since the rest holds wall times.  One line per file reads
``same`` or ``DIFF``.  A ``DIFF`` file whose two texts differ only in their
numbers gets a second line with the largest relative difference
|a - b| / max(|a|, |b|) over its numbers, per column of a CSV table with a
header or per key of ``key=value`` fields.  The exit code is 1 on any
difference, any file present on one side only, or a command whose exit
codes differ; else 0: a difference of any size counts.
"""

import configparser
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

UPSCALERS = ("arithmetic", "geometric", "homogenized")
SMALL_CONFIGS = ("diffusion_tiny", "diffusion_small", "advdiff_small")

# (name, command, config, seed or None for the config's own, overrides)
RUNS = (
    ("optimize-diffusion_tiny", "optimize", "diffusion_tiny", 7, {}),
    ("optimize-diffusion_small", "optimize", "diffusion_small", 1,
     {("optimizer", "max_cycles"): "3"}),
    ("optimize-advdiff_small", "optimize", "advdiff_small", 21,
     {("optimizer", "max_cycles"): "2"}),
    ("optimize-diffusion_tiny-full", "optimize", "diffusion_tiny", None,
     {("optimizer", "dual"): "full"}),
    ("optimize-advdiff_small-full", "optimize", "advdiff_small", None,
     {("optimizer", "dual"): "full", ("optimizer", "max_cycles"): "2"}),
    ("estimate-diffusion_small", "estimate", "diffusion_small", None, {}),
    ("estimate-advdiff_small", "estimate", "advdiff_small", None, {}),
    ("estimate-advdiff_small-full", "estimate", "advdiff_small", None,
     {("optimizer", "dual"): "full"}),
    ("compare-duals-diffusion_tiny", "compare-duals", "diffusion_tiny", None, {}),
    ("reference-diffusion_tiny", "reference", "diffusion_tiny", None, {}),
    ("reference-advdiff_small", "reference", "advdiff_small", None, {}),
    ("generate-field-diffusion_small", "generate-field", "diffusion_small", None, {}),
    ("upscale-diffusion_tiny-laminate", "upscale", "diffusion_tiny", None,
     {("field", "kind"): "laminate", ("field", "axis"): "1", ("field", "a"): "1",
      ("field", "b"): "4", ("field", "layer_width"): "2^-5"}),
    ("upscale-diffusion_tiny-checkerboard", "upscale", "diffusion_tiny", None,
     {("field", "kind"): "checkerboard", ("field", "a"): "1", ("field", "b"): "4",
      ("field", "tile"): "2^-3"}),
    ("estimate-diffusion_tiny-point_value", "estimate", "diffusion_tiny", None,
     {("functional", "kind"): "point_value", ("functional", "x0"): "0.3 0.6"}),
    ("estimate-advdiff_small-unconfined", "estimate", "advdiff_small", None,
     {("advection", "confine_to_sampling_cells"): "no"}),
    ("estimate-advdiff_small-advection_off", "estimate", "advdiff_small", None,
     {("advection", "enabled"): "no"}),
) + tuple(
    (f"upscale-{config}-{upscaler}", "upscale", config, None,
     {("initial_model", "upscaler"): upscaler})
    for config in SMALL_CONFIGS
    for upscaler in UPSCALERS
)


def write_config(source, overrides, path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(source)
    for (section, key), value in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)


def run_side(root, command, config, seed, out):
    cmd = [sys.executable, "-m", "dwropt.cli", command, str(config), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    return subprocess.run(cmd, env=env, capture_output=True, text=True).returncode


def comparable_bytes(path):
    data = path.read_bytes()
    if path.name == "report.txt":
        data = data.split(b"wall-clock per phase", 1)[0]
    return data


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def _relative(x, y):
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def numeric_differences(a, b):
    """{label: largest relative difference} over the numbers of two texts,
    labelled by the column names of a CSV header, the key of a ``key=value``
    field, else "values"; None when the texts differ in anything but their
    numbers."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b) or not lines_a:
        return None
    header = lines_a[0].split(",")
    if lines_a[0] != lines_b[0] or len(header) < 2 or any(NUMBER.fullmatch(h) for h in header):
        header = None
    out = {}
    skip = 0 if header is None else 1
    for line_a, line_b in zip(lines_a[skip:], lines_b[skip:]):
        fields_a, fields_b = line_a.split(","), line_b.split(",")
        if len(fields_a) != len(fields_b):
            return None
        columns = header if header is not None and len(fields_a) == len(header) else None
        for index, (field_a, field_b) in enumerate(zip(fields_a, fields_b)):
            parts_a, parts_b = NUMBER.split(field_a), NUMBER.split(field_b)
            if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
                return None
            if "=" in field_a:
                label = field_a.split("=", 1)[0]
            else:
                label = columns[index] if columns else "values"
            for x, y in zip(parts_a[1::2], parts_b[1::2]):
                out[label] = max(out.get(label, 0.0), _relative(float(x), float(y)))
    return out


def compare_dirs(name, left, right):
    """Print one line per file, and the size of a numeric difference; return
    whether every file matched."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    ok = True
    for file_name in names:
        a, b = left / file_name, right / file_name
        same = a.exists() and b.exists() and comparable_bytes(a) == comparable_bytes(b)
        ok &= same
        print(f"{'same' if same else 'DIFF'} {name}/{file_name}")
        if not same and a.exists() and b.exists():
            diffs = numeric_differences(
                comparable_bytes(a).decode(errors="replace"),
                comparable_bytes(b).decode(errors="replace"),
            )
            if diffs is not None:
                shown = ", ".join(f"{k} {v:.2g}" for k, v in diffs.items() if v > 0.0)
                print(f"     largest relative difference: {shown or 'none'}")
    return ok


def main(argv):
    if len(argv) != 2:
        print("usage: python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = argv
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, command, config, seed, overrides in RUNS:
            cfg = tmp / f"{name}.ini"
            write_config(Path(change) / "configs" / f"{config}.ini", overrides, cfg)
            outs, codes = [], []
            for side, root in (("parent", parent), ("change", change)):
                out = tmp / side / name
                out.mkdir(parents=True)
                codes.append(run_side(root, command, cfg, seed, out))
                outs.append(out)
            if codes[0] != codes[1]:
                ok = False
                print(f"DIFF {name}: exit {codes[0]} (parent) != {codes[1]} (change)")
            ok &= compare_dirs(name, *outs)
    print("all outputs byte-identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

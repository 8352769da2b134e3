"""Command-line front end.

One subcommand per capability: bell (pair correlations or the three-angle
scan), doubleslit (interference with or without a which-path marker), wave
(the lattice automaton against its analytic oracles), pendulum (local
integration against closed forms), analyze (locality classification of a
model declaration file), lhv (exhaustive deterministic-strategy bound).

Every subcommand writes <name>.json and <name>.csv into the output
directory (--out, else $QCAUSAL_OUTPUT_DIR, else the working directory)
and prints a short text summary.  JSON is sorted and timestamp-free, so a
repeated invocation with the same seed is byte-identical.  Exit codes:
0 success, 1 configuration or usage error or out of memory, 2 internal
invariant failure.  Only the library checks a value: main renames the
parameters its error names (wave.sigma) to their flags (--sigma, _FLAGS).

bell, lhv and analyze use no array, and loading numpy is most of the
time it takes to import this module.  So numpy, wave, experiments.doubleslit
and experiments.pendulum are imported inside cmd_doubleslit, cmd_wave and
cmd_pendulum, and the parser reads its choices from numpy-free modules:
the other subcommands, and --help, never load numpy.  Likewise only
analyze classifies models, so cmd_analyze imports locality, and no other
subcommand loads it.  main builds the parser once per process
(build_parser), so repeated invocations in one process (a benchmark, the
tests) share it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

from .choices import BOUNDARIES, PENDULUM_MODES
from .errors import ConfigError, InvariantViolation
from .experiments import bell
from .interaction import RUNTIMES, SCHEDULERS

OUTPUT_DIR_ENV = "QCAUSAL_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here 2 is reserved for
    invariant failures, so usage problems exit 1.  No option looks like a
    number, so an argument that starts like a negative one (-30,20,75,
    -1e2, -inf) is a value, as in the --option=value form."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        print(f"{self.prog}: error: {message} (see {self.prog} --help)", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _angles_triple(raw: str) -> tuple[float, float, float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated angles, got {raw!r}")
    return tuple(_finite_float(p) for p in parts)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing changes no state of
    a parser, so every main call shares it."""
    parser = _Parser(prog="qcausal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True

    def add_common(p):
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")

    p = sub.add_parser("bell", parents=[], help="entangled-pair correlations")
    p.add_argument("--angle-a", type=_finite_float, default=None, help="wing A analyzer angle, degrees")
    p.add_argument("--angle-b", type=_finite_float, default=None, help="wing B analyzer angle, degrees")
    p.add_argument("--angles", type=_angles_triple, default=None, help="a,b,c for the three-pair scan")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runtime", choices=RUNTIMES, default="centralized")
    p.add_argument("--form", choices=bell.FORMS, default="identical")
    p.add_argument(
        "--spindir", type=_finite_float, default=None, help="fix the emission direction (default: uniform)"
    )
    p.add_argument("--scheduler", choices=SCHEDULERS, default="round-robin")
    add_common(p)

    p = sub.add_parser("doubleslit", help="two-slit screen histogram")
    p.add_argument("--marker", choices=("on", "off"), required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runtime", choices=RUNTIMES, default="centralized")
    p.add_argument("--geometry", choices=("default", "small"), default="default")
    p.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="round-robin",
        help="refined runtime only; the two-slit world proposes at most one event per round, "
        "so randomized gives the same output as round-robin",
    )
    add_common(p)

    p = sub.add_parser("wave", help="lattice wave automaton")
    p.add_argument("--cells", type=int, default=200)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--courant", type=_finite_float, default=1.0, help="v dt/dx (dx = dt = 1)")
    p.add_argument("--init", choices=("gaussian", "sine"), default="gaussian")
    p.add_argument("--sigma", type=_finite_float, default=None, help="gaussian width (default cells/16)")
    p.add_argument("--mode", type=int, default=None, help="sine mode number (default 1)")
    p.add_argument(
        "--velocity",
        choices=("traveling", "zero"),
        default=None,
        help="gaussian bootstrap: right-moving pulse or released from rest",
    )
    p.add_argument("--boundary", choices=BOUNDARIES, default=None, help="default periodic")
    p.add_argument("--stride", type=int, default=1, help="snapshot every N steps")
    add_common(p)

    p = sub.add_parser("pendulum", help="coupled pendulums vs closed forms")
    p.add_argument("--mode", choices=PENDULUM_MODES, required=True)
    p.add_argument("--k", type=_finite_float, default=0.5, help="coupling spring constant")
    p.add_argument("--m", type=_finite_float, default=1.0)
    p.add_argument("--omega", type=_finite_float, default=1.0, help="uncoupled frequency omega_0")
    p.add_argument("--steps", type=int, default=1024, help="integration steps per period")
    p.add_argument("--periods", type=_finite_float, default=10.0)
    p.add_argument("--amplitude", type=_finite_float, default=1.0)
    add_common(p)

    p = sub.add_parser("analyze", help="classify a model declaration file")
    p.add_argument("specpath", help="path to a .model file")
    add_common(p)

    p = sub.add_parser("lhv", help="deterministic local-strategy bound")
    p.add_argument("--angles", type=_angles_triple, required=True)
    p.add_argument("--form", choices=bell.FORMS, default="identical")
    add_common(p)

    return parser


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(outdir: Path, name: str, payload: dict) -> Path:
    path = outdir / f"{name}.json"
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity would make the file invalid JSON
        raise InvariantViolation(f"{path.name}: {exc}") from None
    path.write_text(text + "\n")
    return path


def _write_csv(outdir: Path, name: str, header: list, rows: list) -> Path:
    path = outdir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# -- subcommands --------------------------------------------------------------


def _check_scheduler(args):
    if args.scheduler != "round-robin" and args.runtime != "refined":
        raise ConfigError(f"--scheduler {args.scheduler} needs --runtime refined")


def cmd_bell(args) -> int:
    _check_scheduler(args)
    if args.angles is not None and args.spindir is not None:
        raise ConfigError("--spindir applies to one angle pair, not to the --angles scan")
    if args.angles is not None and (args.angle_a is not None or args.angle_b is not None):
        raise ConfigError("--angle-a and --angle-b name one angle pair; the --angles scan takes a,b,c")
    if args.angles is None and args.form != "identical":
        raise ConfigError(f"--form {args.form} applies to the --angles scan only")
    outdir = _output_dir(args)
    spindir = "uniform" if args.spindir is None else args.spindir
    if args.angles is not None:
        scan = bell.bell_scan(
            args.angles, args.trials, args.seed, runtime=args.runtime, form=args.form,
            scheduler=args.scheduler,
        )
        payload = scan.to_json_dict()
        rows = []
        for name, res in scan.results.items():
            c = res.stats.counts()
            rows.append(
                [name, res.config.angle_a, res.config.angle_b,
                 c["pp"], c["pm"], c["mp"], c["mm"], repr(res.stats.correlation)]
            )
        jpath = _write_json(outdir, "bell-scan", payload)
        cpath = _write_csv(
            outdir, "bell-scan",
            ["pair", "angle_x", "angle_y", "n_pp", "n_pm", "n_mp", "n_mm", "correlation"],
            rows,
        )
        e = scan.correlations()
        print(f"bell scan at angles {args.angles}, {args.trials} trials, seed {args.seed}")
        print(f"  E(a,b) = {e['ab']:+.4f}  E(a,c) = {e['ac']:+.4f}  E(b,c) = {e['bc']:+.4f}")
        print(f"  margin = {scan.margin():+.4f} (classical minimum {scan.lhv.classical_min_margin:+.4f})")
    else:
        if args.angle_a is None or args.angle_b is None:
            raise ConfigError("bell needs --angle-a and --angle-b (or --angles for the scan)")
        cfg = bell.BellConfig(
            angle_a=args.angle_a,
            angle_b=args.angle_b,
            trials=args.trials,
            seed=args.seed,
            spindir_policy=spindir,
            runtime=args.runtime,
            scheduler=args.scheduler,
        )
        result = bell.run_bell_experiment(cfg)
        payload = result.to_json_dict()
        freq = result.stats.frequencies()
        counts = result.stats.counts()
        rows = [[k, counts[k], repr(freq[k])] for k in ("pp", "pm", "mp", "mm")]
        jpath = _write_json(outdir, "bell", payload)
        cpath = _write_csv(outdir, "bell", ["outcome", "count", "frequency"], rows)
        print(f"bell at ({args.angle_a}, {args.angle_b}) deg, {args.trials} trials, seed {args.seed}")
        print(f"  P(same) = {result.stats.p_same:.4f}")
        print(f"  E = {result.stats.correlation:+.4f} +- {result.stats.correlation_se:.4f}"
              f" (model {bell.model_correlation(args.angle_a, args.angle_b):+.4f})")
    print(f"  wrote {jpath} and {cpath}")
    return 0


def cmd_doubleslit(args) -> int:
    from .experiments import doubleslit

    _check_scheduler(args)
    outdir = _output_dir(args)
    geometry = doubleslit.DEFAULT_GEOMETRY if args.geometry == "default" else doubleslit.SMALL_GEOMETRY
    hist = doubleslit.run_double_slit(
        marker=(args.marker == "on"),
        trials=args.trials,
        geometry=geometry,
        seed=args.seed,
        runtime=args.runtime,
        scheduler=args.scheduler,
    )
    payload = hist.to_json_dict()
    pdf = hist.oracle_pdf()
    freq = hist.frequencies()
    rows = [
        [x, int(hist.counts[x]), repr(float(freq[x])), repr(float(pdf[x]))]
        for x in range(geometry.n_cells)
    ]
    jpath = _write_json(outdir, "doubleslit", payload)
    cpath = _write_csv(outdir, "doubleslit", ["cell", "count", "frequency", "oracle_pdf"], rows)
    print(f"double slit, marker {args.marker}, {args.trials} trials, seed {args.seed}")
    print(f"  visibility = {hist.visibility():.4f}  (fringe period {geometry.fringe_period:.1f} cells)")
    print(f"  TV distance to analytic pattern = {hist.tv_distance(pdf):.4f}")
    print(f"  wrote {jpath} and {cpath}")
    return 0


def _wave_defaults(args):
    """Reject a flag the chosen init ignores (its default is None, so a flag
    left out is told apart from one given) and a boundary its grid does not
    run, then fill in the defaults."""
    for name in ("sigma", "velocity") if args.init == "sine" else ("mode",):
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name} does not apply to --init {args.init}")
    if args.boundary not in (None, "periodic"):
        if args.init == "sine":
            raise ConfigError(f"--init sine runs a periodic grid, not --boundary {args.boundary}")
        if args.velocity in (None, "traveling"):
            raise ConfigError(
                f"--velocity traveling (the gaussian default) runs a periodic grid, not --boundary {args.boundary}"
            )
    args.mode = 1 if args.mode is None else args.mode
    args.velocity = args.velocity or "traveling"
    args.boundary = args.boundary or "periodic"


def cmd_wave(args) -> int:
    import numpy as np

    from .wave import (
        compare_analytic,
        gaussian_profile,
        make_grid,
        run_wave,
        standing_wave_grid,
        traveling_pulse_grid,
        write_snapshots_csv,
    )

    _wave_defaults(args)
    outdir = _output_dir(args)
    n = args.cells
    v = args.courant  # dx = dt = 1
    oracle = None
    if args.init == "sine":
        grid = standing_wave_grid(n, args.mode, v, 1.0, 1.0)
        k = 2.0 * math.pi * args.mode / n
        profile0 = grid.psi_now.copy()

        def oracle(t):
            return profile0 * math.cos(k * v * t)

    else:
        if args.velocity == "traveling":
            grid = traveling_pulse_grid(n, args.sigma, v, 1.0, 1.0)
            profile0 = grid.psi_now.copy()
            if v == 1.0:
                def oracle(t):
                    return np.roll(profile0, int(round(t)))

        else:
            grid = make_grid(gaussian_profile(n, sigma=args.sigma), v, 1.0, 1.0, boundary=args.boundary)

    run = run_wave(grid, args.steps, args.stride)
    e0 = run.energy_initial
    drift = run.max_energy_change / e0 if e0 > 0 else 0.0
    errors = compare_analytic(run.trajectory, oracle) if oracle is not None else None

    payload = {
        "schema_version": 1,
        "experiment": "wave",
        "params": {
            "cells": n,
            "steps": args.steps,
            "courant": v,
            "init": args.init,
            "boundary": args.boundary,
            "sigma": args.sigma,
            "mode": args.mode,
            "velocity": args.velocity,
            "stride": args.stride,
        },
        "energy_initial": e0,
        "energy_final": run.energy_final,
        "energy_max_rel_drift": drift,
        "oracle_errors": errors,
    }
    jpath = _write_json(outdir, "wave", payload)
    cpath = outdir / "wave.csv"
    write_snapshots_csv(run.trajectory, cpath)
    print(f"wave: {n} cells, {args.steps} steps, Courant {v}, init {args.init}")
    print(f"  energy drift (max relative) = {drift:.3e}")
    if errors is not None:
        print(f"  max error vs analytic form = {errors['max_error']:.3e}")
    print(f"  wrote {jpath} and {cpath}")
    return 0


def cmd_pendulum(args) -> int:
    from .experiments import pendulum

    outdir = _output_dir(args)
    result = pendulum.run_pendulum(
        mode=args.mode,
        m=args.m,
        omega0=args.omega,
        k=args.k,
        amplitude=args.amplitude,
        periods=args.periods,
        steps_per_period=args.steps,
    )
    payload = result.to_json_dict()
    jpath = _write_json(outdir, "pendulum", payload)
    cpath = outdir / "pendulum.csv"
    result.write_csv(cpath)
    print(f"pendulum, {args.mode} mode, k = {args.k}, {args.periods} periods")
    print(f"  max deviation from normal-mode oracle = {result.deviation_from_normal_mode:.3e}")
    print(f"  max deviation from combined-frequency form = {result.deviation_from_closed_form:.3e}")
    if result.closed_form_discrepant:
        print("  note: the combined-frequency form disagrees with the normal-mode oracle in this mode")
    print(f"  wrote {jpath} and {cpath}")
    return 0


def cmd_analyze(args) -> int:
    from .locality import classify_model, load_model_spec, ref_to_text

    outdir = _output_dir(args)
    spec = load_model_spec(args.specpath)
    report = classify_model(spec)
    payload = report.to_json_dict()
    rows = [
        [e.law_id, e.locality.label, "; ".join(f"{ref_to_text(r)} ({why})" for r, why in e.raisers)]
        for e in report.laws
    ]
    jpath = _write_json(outdir, "analyze", payload)
    cpath = _write_csv(outdir, "analyze", ["law", "class", "raised_by"], rows)
    print(report.to_text(), end="")
    print(f"  wrote {jpath} and {cpath}")
    return 0


def cmd_lhv(args) -> int:
    outdir = _output_dir(args)
    report = bell.lhv_oracle(args.angles, args.form)
    payload = report.to_json_dict()
    rows = [
        [
            "".join("+" if s > 0 else "-" for s in st.wing_a),
            "".join("+" if s > 0 else "-" for s in st.wing_b),
            st.correlations[0], st.correlations[1], st.correlations[2],
            repr(st.margin), st.form_consistent,
        ]
        for st in report.strategies
    ]
    jpath = _write_json(outdir, "lhv", payload)
    cpath = _write_csv(
        outdir, "lhv",
        ["wing_a", "wing_b", "E_ab", "E_ac", "E_bc", "margin", "form_consistent"],
        rows,
    )
    model = report.model_margins()
    print(f"lhv bound at angles {args.angles}, {args.form} form")
    print(f"  {report.n_strategies} deterministic strategies, {len(report.consistent)} form-consistent")
    print(f"  classical minimum margin = {report.classical_min_margin:+.4f}")
    print(f"  model margin = {model['margin']:+.4f} (negative violates the bound)")
    print(f"  wrote {jpath} and {cpath}")
    return 0


_COMMANDS = {
    "bell": cmd_bell,
    "doubleslit": cmd_doubleslit,
    "wave": cmd_wave,
    "pendulum": cmd_pendulum,
    "analyze": cmd_analyze,
    "lhv": cmd_lhv,
}


# per subcommand, the flag that sets each library parameter its errors name
_FLAGS = {
    "bell": {"bell.trials": "--trials"},
    "doubleslit": {"doubleslit.trials": "--trials"},
    "wave": {
        "wave.n_cells": "--cells", "wave.steps": "--steps", "wave.v": "--courant", "wave.courant": "--courant",
        "wave.sigma": "--sigma", "wave.mode": "--mode", "wave.snapshot_stride": "--stride",
    },
    "pendulum": {
        "pendulum.m": "--m", "pendulum.omega0": "--omega", "pendulum.k": "--k", "pendulum.amplitude": "--amplitude",
        "pendulum.periods": "--periods", "pendulum.steps_per_period": "--steps",
    },
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # argparse usage errors (code 1) and --help (0)
        return int(exc.code or 0)
    except ConfigError as exc:  # named by qualified names, each renamed to its flag
        flags = _FLAGS.get(args.subcommand, {})
        message = re.sub(r"\w+(?:\.\w+)+", lambda name: flags.get(name[0], name[0]), str(exc))
        print(f"qcausal: error: {message}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:  # unreadable input, unwritable output, no memory
        print(f"qcausal: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"qcausal: invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

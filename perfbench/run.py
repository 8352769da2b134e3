#!/usr/bin/env python3
"""qcausal benchmark: trials per second of four CLI workloads, plus a traced
per-layer run.

    python3 perfbench/run.py --workload bell-centralized --seed 3 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src; nothing
is installed.  Every run

  * checks first that the subcommands still reproduce the stored golden
    outputs at the CLI's default seed (perfbench/golden, byte for byte);
  * then calls ``qcausal.cli.main(argv)`` in this process, once per unit of
    the workload, with a CLI seed drawn from ``--seed``, until ``--seconds``
    have passed, and checks every output against the analytic oracles.

With ``--trace 0`` it prints the end-to-end metrics: the median trials per
second over the units, the median time a fresh interpreter takes to import
``qcausal.cli`` (set-up) and the peak resident memory of this process.
Times are in reference-host seconds: each is scaled by a calibration loop
timed next to it (see calibrate.py), because the host's speed drifts by up
to 2x as other tenants load it.  The unscaled figures are on the line
before the result.
With ``--trace 1`` each unit runs untraced and then traced, the traced run
recording a span around every hooked public function of the package, and
it prints the per-layer metrics derived from those spans.
The traced outputs must equal the untraced ones byte for byte, and the
per-layer counts must repeat exactly when the first unit is traced twice.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (CLI invocations), ``failed`` and ``metrics``.
The line before it holds the environment and the per-unit samples.
``python3 perfbench/run.py --write-golden`` regenerates the golden files
from the current source.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
SRC = ROOT / "src"

GOLDEN_SEED = 0  # the CLI's default --seed
SETUP_PROBES = 7
MIN_UNITS = 3
# per-invocation and pooled oracle checks; a correct program fails one with
# probability about 1e-9, so thousands of checks over many runs stay quiet
BELL_Z = 6.0
TV_DELTA = 1e-9


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a unit: its arguments without --trials/--seed/--out."""

    args: tuple[str, ...]
    trials: int

    @property
    def stem(self) -> str:
        """Base name of the .json/.csv pair the subcommand writes."""
        return "bell-scan" if "--angles" in self.args else self.args[0]

    @property
    def completed_trials(self) -> int:
        # the scan runs the trial count once per angle pair
        return self.trials * (3 if self.stem == "bell-scan" else 1)

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [*self.args, "--trials", str(self.trials), "--seed", str(seed), "--out", str(outdir)]


# Trial counts size one unit to about a third of a second on a quiet 2-core
# x86 host, so a 20-second run yields about fifty samples for its median.
WORKLOADS: dict[str, tuple[Step, ...]] = {
    "bell-centralized": (Step(("bell", "--angles", "0,30,60"), 400),),
    "bell-refined": (Step(("bell", "--angle-a", "0", "--angle-b", "30", "--runtime", "refined"), 600),),
    "doubleslit-centralized": (
        Step(("doubleslit", "--marker", "off"), 1000),
        Step(("doubleslit", "--marker", "on"), 1000),
    ),
    "doubleslit-refined": (
        Step(("doubleslit", "--marker", "on", "--geometry", "small", "--runtime", "refined"), 400),
    ),
}


# -- output checks ----------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-strict JSON constant {name}")


def strict_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


class Oracle:
    """Analytic checks of one output, plus pooled checks over a whole run."""

    def __init__(self):
        from qcausal.experiments import bell, doubleslit

        self.bell = bell
        self.ds = doubleslit
        self.bell_pool: dict[tuple, list[int]] = {}  # (a, b) -> [same, total]
        self.ds_pool: dict[tuple, object] = {}  # (geometry, marker) -> summed counts

    def check(self, stem: str, payload: dict, csv_text: str):
        if stem in ("bell", "bell-scan"):
            self._check_bell(stem, payload, csv_text)
        else:
            self._check_doubleslit(payload, csv_text)

    def _bell_bound(self, a: float, b: float, n: int) -> tuple[float, float]:
        model = self.bell.model_correlation(a, b)
        return model, BELL_Z * math.sqrt(max(0.0, 1.0 - model * model) / n)

    def _check_bell(self, stem: str, payload: dict, csv_text: str):
        pairs = list(payload["pairs"].values()) if stem == "bell-scan" else [payload]
        rows = csv_rows(csv_text)
        for k, res in enumerate(pairs):
            p, c = res["params"], res["counts"]
            n = c["pp"] + c["pm"] + c["mp"] + c["mm"]
            if n != p["trials"]:
                raise CheckFailed(f"bell counts sum to {n}, expected {p['trials']}")
            same = c["pp"] + c["mm"]
            e = (2 * same - n) / n
            if not math.isclose(e, res["correlation"], rel_tol=1e-12, abs_tol=1e-15):
                raise CheckFailed(f"bell correlation {res['correlation']} disagrees with counts ({e})")
            model, bound = self._bell_bound(p["angle_a"], p["angle_b"], n)
            if abs(e - model) > bound:
                raise CheckFailed(f"bell E({p['angle_a']}, {p['angle_b']}) = {e:+.4f}, model {model:+.4f}")
            pool = self.bell_pool.setdefault((p["angle_a"], p["angle_b"]), [0, 0])
            pool[0] += same
            pool[1] += n
            if stem == "bell-scan":
                csv_counts = [int(v) for v in rows[k][3:7]]
            else:
                csv_counts = [int(r[1]) for r in rows]
            if csv_counts != [c["pp"], c["pm"], c["mp"], c["mm"]]:
                raise CheckFailed("bell CSV counts differ from the JSON")

    def _geometry(self, p: dict):
        return self.ds.SlitGeometry(
            n_cells=p["n_cells"],
            slit_separation=p["slit_separation"],
            screen_distance=p["screen_distance"],
            wavelength=p["wavelength"],
        )

    def _pdf(self, geometry, marker: bool):
        return self.ds.incoherent_pdf(geometry) if marker else self.ds.coherent_pdf(geometry)

    @staticmethod
    def _tv_bound(pdf, n: int) -> float:
        # E[TV] <= sum_i sd(count_i) / 2n (Jensen); TV moves by at most 1/n
        # per trial, so McDiarmid gives the exceedance probability TV_DELTA
        mean = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in pdf)
        return mean + math.sqrt(math.log(1.0 / TV_DELTA) / (2.0 * n))

    @staticmethod
    def _tv(counts, pdf) -> float:
        n = sum(counts)
        return 0.5 * sum(abs(c / n - p) for c, p in zip(counts, pdf))

    def _check_doubleslit(self, payload: dict, csv_text: str):
        p = payload["params"]
        counts = payload["counts"]
        geometry = self._geometry(p)
        marker = p["marker"] == "on"
        if len(counts) != geometry.n_cells or min(counts) < 0:
            raise CheckFailed(f"doubleslit histogram has {len(counts)} cells or a negative count")
        if sum(counts) != p["trials"]:
            raise CheckFailed(f"doubleslit counts sum to {sum(counts)}, expected {p['trials']}")
        if [int(r[1]) for r in csv_rows(csv_text)] != counts:
            raise CheckFailed("doubleslit CSV counts differ from the JSON")
        pdf = self._pdf(geometry, marker)
        tv, bound = self._tv(counts, pdf), self._tv_bound(pdf, p["trials"])
        if tv > bound:
            raise CheckFailed(f"doubleslit marker {p['marker']}: TV {tv:.4f} to the oracle exceeds {bound:.4f}")
        key = (geometry, marker)
        pooled = self.ds_pool.get(key)
        self.ds_pool[key] = list(counts) if pooled is None else [a + b for a, b in zip(pooled, counts)]

    def pooled_problems(self) -> list[str]:
        """The same oracle bounds applied to every output of the run summed."""
        problems = []
        for (a, b), (same, n) in sorted(self.bell_pool.items()):
            model, bound = self._bell_bound(a, b, n)
            e = (2 * same - n) / n
            if abs(e - model) > bound:
                problems.append(f"pooled bell E({a}, {b}) = {e:+.5f} over {n}, model {model:+.5f}")
        for (geometry, marker), counts in self.ds_pool.items():
            pdf = self._pdf(geometry, marker)
            n = sum(counts)
            tv, bound = self._tv(counts, pdf), self._tv_bound(pdf, n)
            if tv > bound:
                problems.append(f"pooled doubleslit marker {marker}: TV {tv:.5f} over {n} exceeds {bound:.5f}")
        return problems


# -- running the CLI ----------------------------------------------------------------


@dataclass
class Unit:
    seconds: float  # wall time inside cli.main, summed over the steps
    outputs: list  # per step: (json text, csv text), or None where the step failed
    failed: int


def run_unit(cli, steps, seed: int, outdir: Path, log) -> Unit:
    """Invoke every step once; only the cli.main calls are timed."""
    seconds, outputs, failed = 0.0, [], 0
    for i, step in enumerate(steps):
        stepdir = outdir / f"step{i}"
        argv = step.argv(seed, stepdir)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds += time.perf_counter() - t0
        except Exception:  # a crash is one failed invocation, not the end of the run
            log(f"qcausal {' '.join(argv)} raised:\n{traceback.format_exc()}")
            code = None
        if code != 0:
            if code is not None:
                log(f"qcausal {' '.join(argv)} exited {code}: {captured.getvalue().strip()}")
            failed += 1
            outputs.append(None)
            continue
        try:
            outputs.append(
                ((stepdir / f"{step.stem}.json").read_text(), (stepdir / f"{step.stem}.csv").read_text())
            )
        except OSError as exc:
            log(f"qcausal {' '.join(argv)} exited 0 but left no output: {exc}")
            failed += 1
            outputs.append(None)
    return Unit(seconds, outputs, failed)


def check_unit(unit: Unit, steps, oracle: Oracle | None, golden: list | None, log) -> int:
    """Failed invocations of the unit after checking each output.

    With golden set, outputs must equal the stored files byte for byte;
    otherwise they must pass the oracle checks.
    """
    failed = unit.failed
    for i, (step, out) in enumerate(zip(steps, unit.outputs)):
        if out is None:
            continue
        try:
            payload = strict_json(out[0])
            if golden is not None:
                if out != golden[i]:
                    raise CheckFailed(f"output differs from golden/{i}-{step.stem}")
            else:
                oracle.check(step.stem, payload, out[1])
        except (CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            log(f"step {i} ({' '.join(step.args)}): {type(exc).__name__}: {exc}")
            failed += 1
    return failed


def load_golden(workload: str) -> list:
    d = GOLDEN / workload
    return [
        ((d / f"{i}-{s.stem}.json").read_text(), (d / f"{i}-{s.stem}.csv").read_text())
        for i, s in enumerate(WORKLOADS[workload])
    ]


def unit_seeds(seed: int):
    """CLI seeds for the timed units: a fixed sequence per benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


# -- tracing ------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """A span (or, with span=False, a bare counter) around one public function.

    measure(args, result) adds a number to the hook's value counter after the
    call returns, outside the span.
    """

    name: str
    target: str  # "module:attr" or "module:Class.attr"
    span: bool = True
    measure: object = None


def _ads_on_board(args, result):
    return sum(len(ads) for ads in args[0].mediator.board.values())


HOOKS = (
    Hook("engine.substream", "qcausal.engine:RngState.substream"),
    Hook("engine.random_draw", "qcausal.engine:random_draw"),
    Hook("state.pathstate_build", "qcausal.state:PathState.__init__"),
    Hook("state.path_build", "qcausal.state:Path.__init__"),
    Hook("state.object_build", "qcausal.state:QuantumObject.__init__"),
    Hook("state.reduce_to_path", "qcausal.state:reduce_to_path"),
    Hook("state.normalize", "qcausal.state:normalize_amplitudes"),
    Hook("interaction.detect", "qcausal.interaction:determine_potential_interactions",
         measure=lambda args, result: len(result)),
    Hook("interaction.select", "qcausal.interaction:select_interaction"),
    Hook("interaction.perform", "qcausal.interaction:perform_interaction"),
    Hook("interaction.create", "qcausal.interaction:create_interaction_object"),
    Hook("interaction.drop", "qcausal.interaction:drop_particle"),
    Hook("interaction.eliminate", "qcausal.interaction:eliminate_unaffected_paths"),
    Hook("interaction.process", "qcausal.interaction:process_interaction_object"),
    Hook("runtime.round", "qcausal.runtime:RefinedRuntime.run_round"),
    Hook("runtime.detect_grant", "qcausal.runtime:RefinedRuntime.detect_and_grant"),
    Hook("runtime.claim", "qcausal.runtime:RefinedRuntime.claim_and_interact",
         measure=lambda args, result: 1 if result else 0),
    Hook("runtime.propagate", "qcausal.runtime:RefinedRuntime.propagate_phase"),
    Hook("runtime.publish", "qcausal.runtime:RefinedRuntime.publish_phase", measure=_ads_on_board),
    Hook("runtime.spawn_engine", "qcausal.runtime:RefinedRuntime.spawn_engine"),
    Hook("runtime.collect_events", "qcausal.runtime:SpaceMediator.collect_events", span=False,
         measure=lambda args, result: len(result)),
    Hook("runtime.reject", "qcausal.runtime:SpaceMediator.reject", span=False),
    Hook("bell.drift", "qcausal.experiments.bell:drift"),
    Hook("bell.stern_gerlach", "qcausal.experiments.bell:apply_stern_gerlach"),
    Hook("doubleslit.propagate", "qcausal.experiments.doubleslit:propagate_to_screen"),
    Hook("cli.command", "qcausal.cli:cmd_bell"),
    Hook("cli.command", "qcausal.cli:cmd_doubleslit"),
    Hook("cli.driver", "qcausal.experiments.bell:bell_scan"),
    Hook("cli.driver", "qcausal.experiments.bell:run_bell_experiment"),
    Hook("cli.driver", "qcausal.experiments.doubleslit:run_double_slit"),
)
HOOK_NAMES = sorted({h.name for h in HOOKS})


def _resolve(target: str):
    """(owner, attribute, original) for a hook target, or None when it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Spans kept in flat in-memory arrays: hook name, parent span, start, end."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(HOOK_NAMES, 0)  # calls of span=False hooks
        self.values = dict.fromkeys(HOOK_NAMES, 0)  # sums of measure()
        self.missing: set[str] = set()
        self._undo: list = []

    def _measure(self, hook: Hook, args, result):
        try:
            self.values[hook.name] += hook.measure(args, result)
        except (AttributeError, KeyError, TypeError):
            self.missing.add(hook.name)

    def _spanned(self, hook: Hook, fn):
        index = HOOK_NAMES.index(hook.name)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        measure = hook.measure

        def traced(*args, **kwargs):
            i = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                self._measure(hook, args, result)
            return result

        return traced

    def _counted(self, hook: Hook, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[hook.name] += 1
            if hook.measure is not None:
                self._measure(hook, args, result)
            return result

        return counted

    def install(self):
        for hook in HOOKS:
            found = _resolve(hook.target)
            if found is None:
                self.missing.add(hook.name)
                continue
            owner, attr, original = found
            wrapped = (self._spanned if hook.span else self._counted)(hook, original)
            if isinstance(owner, type):
                self._rebind(vars(owner), original, wrapped, lambda k, v, o=owner: setattr(o, k, v))
                continue
            # modules import functions by name, and dispatch tables hold them
            # too: rebind every reference in every loaded package module
            for module_name, module in list(sys.modules.items()):
                if module_name == "qcausal" or module_name.startswith("qcausal."):
                    space = vars(module)
                    self._rebind(space, original, wrapped, space.__setitem__)
                    for table in [v for v in space.values() if type(v) is dict]:
                        self._rebind(table, original, wrapped, table.__setitem__)

    def _rebind(self, mapping, original, wrapped, assign):
        for key in [k for k, v in mapping.items() if v is original]:
            assign(key, wrapped)
            self._undo.append((assign, key, original))

    def uninstall(self):
        for assign, key, original in reversed(self._undo):
            assign(key, original)
        self._undo.clear()

    def totals(self) -> dict:
        """Per hook name: calls, self time in ns, and measured value sum."""
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_ns = np.bincount(names, weights=dur - covered, minlength=len(HOOK_NAMES))
        calls = np.bincount(names, minlength=len(HOOK_NAMES))
        return {
            n: {
                "calls": int(calls[i]) + self.counts[n],
                "self_ns": float(self_ns[i]),
                "value": self.values[n],
            }
            for i, n in enumerate(HOOK_NAMES)
        }

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for i, (n, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{HOOK_NAMES[n]}\t{p}\t{s}\t{e}\n")


class MissingHook(Exception):
    pass


class LayerStats:
    """Totals of one traced unit, read per trial; times in reference-host units."""

    def __init__(self, totals: dict, missing: set, trials: int, invocations: int, scale: float):
        self.totals = totals
        self.missing = missing
        self.trials = trials
        self.invocations = invocations
        self.scale = scale  # calibrate.factor() around the traced unit

    def _get(self, name: str, key: str):
        if name in self.missing:
            raise MissingHook(name)
        return self.totals[name][key]

    def calls(self, name: str) -> int:
        return self._get(name, "calls")

    def value(self, name: str):
        return self._get(name, "value")

    def self_us(self, *names: str) -> float:
        return sum(self._get(n, "self_ns") for n in names) * self.scale / 1e3

    def per_trial(self, x: float) -> float:
        return x / self.trials


def _ratio(x, y) -> float:
    return x / y if y else 0.0


# name -> (unit, function of LayerStats).  Units starting with "us" are times:
# reported as the median over the traced units.  The rest are counts, read
# from the first traced unit, whose CLI seed is fixed by --seed.
LAYER_METRICS = {
    "engine.substream.calls": ("calls/trial", lambda s: s.per_trial(s.calls("engine.substream"))),
    "engine.substream.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("engine.substream"))),
    "engine.random_draw.calls": ("calls/trial", lambda s: s.per_trial(s.calls("engine.random_draw"))),
    "engine.random_draw.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("engine.random_draw"))),
    "state.pathstate_builds": ("builds/trial", lambda s: s.per_trial(s.calls("state.pathstate_build"))),
    "state.path_builds": ("builds/trial", lambda s: s.per_trial(s.calls("state.path_build"))),
    "state.object_builds": ("builds/trial", lambda s: s.per_trial(s.calls("state.object_build"))),
    "state.build.self_us": ("us/trial", lambda s: s.per_trial(
        s.self_us("state.pathstate_build", "state.path_build", "state.object_build"))),
    "state.reduce.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("state.reduce_to_path", "state.normalize"))),
    "interaction.detect.calls": ("calls/trial", lambda s: s.per_trial(s.calls("interaction.detect"))),
    "interaction.detect.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.detect"))),
    "interaction.candidates": ("cands/call", lambda s: _ratio(s.value("interaction.detect"),
                                                              s.calls("interaction.detect"))),
    "interaction.select.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.select"))),
    "interaction.perform.calls": ("calls/trial", lambda s: s.per_trial(s.calls("interaction.perform"))),
    "interaction.perform.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.perform"))),
    "interaction.create.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.create"))),
    "interaction.drop.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.drop"))),
    "interaction.eliminate.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.eliminate"))),
    "interaction.process.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("interaction.process"))),
    "runtime.rounds": ("rounds/trial", lambda s: s.per_trial(s.calls("runtime.round"))),
    "runtime.detect_grant.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("runtime.detect_grant"))),
    "runtime.claim.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("runtime.claim"))),
    "runtime.propagate.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("runtime.propagate"))),
    "runtime.publish.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("runtime.publish"))),
    "runtime.spawn_engine.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("runtime.spawn_engine"))),
    "runtime.ads": ("ads/round", lambda s: _ratio(s.value("runtime.publish"), s.calls("runtime.round"))),
    "runtime.events": ("events/trial", lambda s: s.per_trial(s.value("runtime.collect_events"))),
    "runtime.grant_ratio": ("ratio", lambda s: _ratio(s.value("runtime.claim"), s.value("runtime.collect_events"))),
    "runtime.rejections": ("rejects/trial", lambda s: s.per_trial(s.calls("runtime.reject"))),
    "bell.drift.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("bell.drift"))),
    "bell.stern_gerlach.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("bell.stern_gerlach"))),
    "doubleslit.propagate.calls": ("calls/trial", lambda s: s.per_trial(s.calls("doubleslit.propagate"))),
    "doubleslit.propagate.self_us": ("us/trial", lambda s: s.per_trial(s.self_us("doubleslit.propagate"))),
    "cli.output.self_us": ("us/invocation", lambda s: s.self_us("cli.command") / s.invocations),
}


def layer_values(stats: LayerStats) -> dict:
    """Metric name -> value, or None where a hook it reads is missing."""
    out = {}
    for name, (_, fn) in LAYER_METRICS.items():
        try:
            out[name] = float(fn(stats))
        except MissingHook:
            out[name] = None
    return out


def traced_unit(cli, steps, seed, outdir, log):
    tracer = Tracer()
    tracer.install()
    try:
        unit = run_unit(cli, steps, seed, outdir, log)
    finally:
        tracer.uninstall()
    return unit, tracer


# -- environment ------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree; don't report an enclosing repo
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "load1_start": os.getloadavg()[0],
    }


# Timed inside the child: a parent waiting with a timeout polls the child in
# sleeps of up to 50 ms, which would quantize the measurement.
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, {bench!r}); import calibrate; c = calibrate.seconds(); "
    "t0 = time.perf_counter(); import qcausal.cli; t = time.perf_counter() - t0; "
    "print(t, c, calibrate.seconds())"
)


def setup_seconds() -> tuple[list[float], list[float]]:
    """Time to import qcausal.cli in fresh interpreters: (raw, calibrated) per probe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE.format(bench=str(BENCH))],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        seconds, before, after = (float(x) for x in done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.factor(before, after))
    return raw, scaled


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"n": len(xs), "median": xs[0] if xs else None}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": statistics.median(xs), "q1": q1, "q3": q3}


# -- the two kinds of run -----------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    import qcausal.cli as cli

    steps = WORKLOADS[workload]
    trials = sum(s.completed_trials for s in steps)
    outdir = OUT / workload
    shutil.rmtree(outdir, ignore_errors=True)
    oracle = Oracle()
    attempted, failed, correct = 0, 0, True

    def tally(unit, golden=None):
        nonlocal attempted, failed
        attempted += len(steps)
        failed += check_unit(unit, steps, oracle, golden, log)

    def tally_traced(plain, traced):
        # traced outputs are checked through equality with the untraced ones
        nonlocal attempted, failed
        attempted += len(steps)
        failed += traced.failed
        for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
            if a is not None and b is not None and a != b:
                log(f"step {i}: traced output differs from the untraced output")
                failed += 1

    # the golden check doubles as warm-up: imports and lazy caches are done
    # before anything is timed
    tally(run_unit(cli, steps, GOLDEN_SEED, outdir, log), load_golden(workload))

    metrics: dict[str, tuple] = {}
    seeds = unit_seeds(seed)
    t_end = time.perf_counter() + seconds
    if not trace:
        # each unit is scaled by the mean of the calibration loops around it
        rates, raw_rates, units = [], [], 0
        cal = calibrate.seconds()
        while units < MIN_UNITS or time.perf_counter() < t_end:
            unit = run_unit(cli, steps, next(seeds), outdir, log)
            cal_after = calibrate.seconds()
            tally(unit)
            units += 1
            if unit.failed == 0:
                raw_rates.append(trials / unit.seconds)
                rates.append(raw_rates[-1] / calibrate.factor(cal, cal_after))
            cal = cal_after
        raw_setup, setup = setup_seconds()
        samples = {
            "trials_per_s": rates,
            "trials_per_wall_s": raw_rates,
            "setup_s": setup,
            "setup_wall_s": raw_setup,
        }
        metrics = {
            "trials_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        ratios, per_unit = [], []
        while not per_unit or time.perf_counter() < t_end:
            unit_seed = next(seeds)
            cal = calibrate.seconds()
            plain = run_unit(cli, steps, unit_seed, outdir, log)
            cal_mid = calibrate.seconds()
            tally(plain)
            traced, tracer = traced_unit(cli, steps, unit_seed, outdir, log)
            cal_after = calibrate.seconds()
            tally_traced(plain, traced)
            scale = calibrate.factor(cal_mid, cal_after)
            totals = tracer.totals()
            per_unit.append(layer_values(LayerStats(totals, tracer.missing, trials, len(steps), scale)))
            if plain.failed == 0 and traced.failed == 0:
                ratios.append(traced.seconds * scale / (plain.seconds * calibrate.factor(cal, cal_mid)))
            if len(per_unit) == 1:
                tracer.write_spans(OUT / f"{workload}.spans.tsv")
                again, tracer = traced_unit(cli, steps, unit_seed, outdir, log)
                tally_traced(plain, again)
                if _counts(tracer.totals()) != _counts(totals):
                    log("per-layer counts differ between two traced runs of the same unit")
                    correct = False
        for name, (unit_name, _) in LAYER_METRICS.items():
            if unit_name.startswith("us"):
                xs = [values[name] for values in per_unit]
                value = None if None in xs else statistics.median(xs)
            else:
                value = per_unit[0][name]
            metrics[name] = (value, unit_name)
        metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else None, "ratio")
        samples = {"trace.overhead_ratio": ratios}

    problems = oracle.pooled_problems()
    for p in problems:
        log(p)
    return {
        "correct": correct and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
    }


def _counts(totals: dict) -> dict:
    return {n: (t["calls"], t["value"]) for n, t in totals.items()}


def write_golden():
    import qcausal.cli as cli

    for workload, steps in WORKLOADS.items():
        outdir = OUT / workload
        unit = run_unit(cli, steps, GOLDEN_SEED, outdir, lambda m: print(m, file=sys.stderr))
        if unit.failed:
            raise SystemExit(f"{workload}: a step failed; golden files not written")
        d = GOLDEN / workload
        d.mkdir(parents=True, exist_ok=True)
        for i, (step, (js, cs)) in enumerate(zip(steps, unit.outputs)):
            (d / f"{i}-{step.stem}.json").write_text(js)
            (d / f"{i}-{step.stem}.csv").write_text(cs)
        print(f"wrote {d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="regenerate perfbench/golden and exit")
    args = parser.parse_args(argv)
    if not (SRC / "qcausal" / "cli.py").is_file():
        print(f"perfbench: no qcausal sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    def log(message):
        print(f"perfbench: {message}", file=sys.stderr)

    env = environment()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), log)
    env["load1_end"] = os.getloadavg()[0]
    if max(env["load1_start"], env["load1_end"]) > (env["nproc"] or 1):
        log(f"load average {max(env['load1_start'], env['load1_end']):.2f} exceeds nproc {env['nproc']}")
    samples = {k: {"quartiles": quartiles(v), "values": v} for k, v in result.pop("samples").items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "samples": samples}))
    result["metrics"] = {
        name: ({"value": value, "unit": unit} if value is not None else {"value": None, "unit": unit, "missing": True})
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

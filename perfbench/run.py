"""End-to-end benchmark of the ``varentropy_lab`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --capture-reference       # refresh perfbench/reference/

Run from anywhere; paths resolve against the repository root (the parent of
this directory). Each workload's input is generated from a shipped config into
a temporary directory under ``.perfbench/`` and the CLI is launched as a child
process (``python -m varentropy_lab ...``), one at a time, always with
``--out`` pointing into that directory. Every output is verified.

``--trace 0`` reports the end-to-end metrics (``wall_rel``, ``setup_s``,
``peak_rss_mb``) measured with tracing off; ``wall_rel`` is each
invocation's wall time over that of a fixed reference kernel run beside it
(``ref_kernel.py``), and the raw wall times are in the record. ``--trace 1``
pairs an untraced invocation with one traced through ``trace_run.py`` and
reports the per-layer metrics. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Before it
come the full record as one JSON line (quartiles, sample counts, reference
comparison, environment; also saved under ``.perfbench/results/``) and a
table of the metrics. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"

#: Thread count for BLAS/OpenMP pools in every child. The workloads make no
#: multithreaded BLAS calls; pinning keeps a shared 2-core machine quieter.
CHILD_THREADS = "1"

#: Whole-run budget; the contract allows 180 s per run.
RUN_BUDGET_S = 165.0

#: Fewest timed CLI invocations per untraced run, whatever ``--seconds`` says.
MIN_INVOCATIONS = 2

#: The sweep members' rate-consistency checks fail quietly at the seed commit
#: (2 on sweep_dense, 13 on the shipped sweep) and the sweep still exits 0.
#: This is recorded by ``scenarios.member_checks_failed``, not counted as a
#: failure.
WORKLOADS = {
    "relax_mc": {
        "command": "run",
        "config": "configs/double_well_relax.json",
        "parse": "scenario",
    },
    "sweep_dense": {
        "command": "sweep",
        "config": "configs/sweep_double_well.json",
        "parse": "sweep",
        # one sample per solver step (t_end 1.2, dt 1e-3): 10x the states of
        # the shipped sweep through functionals.report, same solver work
        "base_n_samples": 1201,
    },
}

#: Output files checked per workload.
RELAX_GRID_FILES = ("functionals.csv", "consistency.csv")
RELAX_MC_FILES = ("checks.csv", "mc_diagnostics.csv")
SWEEP_FILE = "sweep.csv"
SWEEP_MEMBERS = 8

#: Wrappers that must fire on each workload in the traced run (a renamed
#: function must not silently zero a layer), and the layer that must not
#: fire on the grid-only workloads.
REQUIRED_SPANS = {
    "relax_mc": {
        "main", "ScenarioConfig.from_json", "run_scenario", "solve", "report",
        "relative_entropy", "varentropy", "varentropy_rate", "simulate_ensemble",
        "estimate_backward_drift", "martingale_diagnostic", "mc_functionals", "drift",
    },
    "sweep_dense": {
        "main", "SweepConfig.from_json", "ScenarioConfig.from_dict",
        "monotonicity_sweep", "run_scenario", "solve", "report",
    },
}
GRID_ONLY = ("sweep_dense",)

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "scenarios.parse_s": "s",
    "scenarios.parse_calls": "count",
    "scenarios.run_self_s": "s",
    "scenarios.member_checks_failed": "count",
    "drifts.drift_calls": "count",
    "drifts.drift_s": "s",
    "fokker_planck.solve_calls": "count",
    "fokker_planck.solve_s": "s",
    "fokker_planck.node_steps": "count",
    "fokker_planck.ns_per_node_step": "ns",
    "functionals.report_s": "s",
    "functionals.report_states": "count",
    "functionals.us_per_state": "us",
    "functionals.scalar_calls": "count",
    "functionals.scalar_s": "s",
    "monte_carlo.simulate_s": "s",
    "monte_carlo.path_steps": "count",
    "monte_carlo.ns_per_path_step": "ns",
    "monte_carlo.martingale_s": "s",
    "monte_carlo.mc_functionals_s": "s",
    "monte_carlo.backward_drift_s": "s",
    "monte_carlo.bins_defined_ratio": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program could not be set up at all; no result is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def bench_cpu() -> int:
    """The CPU that the harness, its children and the reference kernel all
    run on: each vCPU of a shared host slows down on its own, so the kernel
    must see the CLI's CPU. The highest-numbered of the allowed set."""
    return max(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VARENTROPY_LAB_OUTPUT_ROOT", None)  # would redirect sweep members' reports
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # bytecode is cached under .perfbench/, never next to the sources, so
    # set-up is timed with a warm cache as an installed package would have
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = CHILD_THREADS
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: Path
    stderr: Path

    def tail(self, lines: int = 5) -> str:
        text = self.stderr.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-lines:])


def launch(argv: list[str], log_stem: Path, timeout_s: float) -> Child:
    """Run one child to completion; wall time is launch to reaped exit and
    memory is the child's max RSS from ``wait4``."""
    stdout, stderr = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    config: Path
    mc_seed: int | None

    def cli_argv(self, spec: dict, out: Path) -> list[str]:
        target = out if spec["command"] == "run" else out / SWEEP_FILE
        return [spec["command"], str(self.config), "--out", str(target)]


def shipped_mc_seed() -> int:
    with open(ROOT / WORKLOADS["relax_mc"]["config"]) as fh:
        return int(json.load(fh)["mc"]["seed"])


def make_inputs(name: str, tmp: Path, mc_seed: int | None) -> Inputs:
    """Copy the shipped config into ``tmp`` with the workload's changes. The
    ``outputs`` field is dropped: it points into the repository."""
    spec = WORKLOADS[name]
    with open(ROOT / spec["config"]) as fh:
        data = json.load(fh)
    data.pop("outputs", None)
    seed = None
    if spec["command"] == "run" and data.get("mc") is not None:
        seed = data["mc"]["seed"] = int(data["mc"]["seed"] if mc_seed is None else mc_seed)
    if "base_n_samples" in spec:
        data["base"]["time"]["n_samples"] = spec["base_n_samples"]
    path = tmp / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
    return Inputs(path, seed)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_table(path: Path) -> list[dict]:
    """Rows as dicts, each line split from the right: the sweep writes its
    JSON labels in the first column unquoted, commas included."""
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    return [dict(zip(names, line.rsplit(",", len(names) - 1))) for line in lines]


def compare_csv(path: Path, ref: Path) -> dict:
    """Byte identity against the reference and the largest relative
    difference over numeric cells (``|a-b| / max(|a|, |b|)``)."""
    if not ref.exists():
        return {"identical": None, "note": "no reference"}
    if path.read_bytes() == ref.read_bytes():
        return {"identical": True, "max_rel_diff": 0.0}
    rows, ref_rows = read_csv(path), read_csv(ref)
    if [len(r) for r in rows] != [len(r) for r in ref_rows]:
        return {"identical": False, "max_rel_diff": None, "note": "shape differs"}
    worst, text_cells = 0.0, 0
    for row, ref_row in zip(rows, ref_rows):
        for a, b in zip(row, ref_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                text_cells += 1
                continue
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale > 0 else 0.0)
    return {"identical": False, "max_rel_diff": worst, "text_cells_differ": text_cells}


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def verify(name: str, child: Child, out: Path, inputs: Inputs, shipped_seed: int) -> dict:
    """Check one invocation's exit code and outputs; compare with the
    reference captured at the seed commit (reported, not gated)."""
    problems: list[str] = []
    ref_dir = REFERENCE / name
    if child.code != 0:
        problems.append(f"exit code {child.code}: {child.tail()}")
    if name == "relax_mc":
        files = {f: out / f for f in RELAX_GRID_FILES + RELAX_MC_FILES}
        if inputs.mc_seed != shipped_seed:
            # the MC files depend on the seed; the reference holds the shipped one
            compared = RELAX_GRID_FILES
        else:
            compared = tuple(files)
    else:
        files = {SWEEP_FILE: out / SWEEP_FILE}
        compared = (SWEEP_FILE,)
    missing = [f for f, p in files.items() if not p.exists()]
    if missing:
        problems.append(f"missing outputs {missing}")
    else:
        try:
            problems.extend(_check_outputs(name, files, ref_dir))
        except (ValueError, KeyError, IndexError) as err:
            problems.append(f"malformed output: {err!r}")
    reference = {f: compare_csv(files[f], ref_dir / f) for f in compared if files[f].exists()}
    return {"ok": not problems, "problems": problems, "reference": reference}


def _check_outputs(name: str, files: dict[str, Path], ref_dir: Path) -> list[str]:
    problems = []
    if name == "relax_mc":
        # the detail column is free text with commas, the first two are not
        failed = [r[0] for r in read_csv(files["checks.csv"])[1:] if r[1] != "True"]
        if failed:
            problems.append(f"checks failed: {failed}")
        for fname in RELAX_GRID_FILES:
            got, ref = read_csv(files[fname]), read_csv(ref_dir / fname)
            if got[0] != ref[0] or len(got) != len(ref):
                problems.append(f"{fname}: header or row count differs from reference")
    else:
        got, ref = read_table(files[SWEEP_FILE]), read_table(ref_dir / SWEEP_FILE)
        if len(got) != SWEEP_MEMBERS:
            problems.append(f"sweep has {len(got)} rows, expected {SWEEP_MEMBERS}")
        for g, r in zip(got, ref):
            if (g["label"], g["sign_change"], _optional_float(g["time_of_max"])) != (
                r["label"], r["sign_change"], _optional_float(r["time_of_max"])
            ):
                problems.append(f"sweep row {g['label']}: sign_change/time_of_max "
                                f"differ from reference")
    return problems


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it
    (None below eleven samples)."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n,
           "samples": values, "p_high": None}
    if n >= 11:
        pct = math.floor(100.0 * (1.0 - 10.0 / n))
        if pct >= 1:
            out["p_high"] = {"percentile": pct,
                             "value": statistics.quantiles(values, n=100)[pct - 1]}
    return out


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources and shipped configs, which identifies
    the code under test where no git metadata exists."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "openblas_num_threads": CHILD_THREADS,
        "children": "one at a time",
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: temp dir, deadline, invocation counts."""

    def __init__(self, name: str, mc_seed: int | None):
        self.name = name
        self.spec = WORKLOADS[name]
        self.start = time.monotonic()
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        self.inputs = make_inputs(name, self.tmp, mc_seed)
        self.shipped_seed = shipped_mc_seed()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict = {}
        self.longest = 0.0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def has_time_for(self, invocations: int) -> bool:
        return self.remaining() > 1.2 * invocations * self.longest + 5.0

    def probe_setup(self, label: str) -> Child:
        """One set-up probe: a fresh interpreter importing the package and
        parsing the workload's config."""
        argv = [sys.executable, str(BENCH / "setup_probe.py"), self.spec["parse"],
                str(self.inputs.config)]
        child = launch(argv, self.tmp / label, self.remaining())
        if child.code != 0:
            raise SetupError(f"set-up probe exited {child.code}: {child.tail()}")
        return child

    def invoke(self, argv_head: list[str], label: str, extra_check=None) -> Child:
        """Launch one CLI command (plain or traced) and verify its outputs;
        ``extra_check()`` returns further problems of the same invocation."""
        out = self.tmp / label
        out.mkdir()
        argv = argv_head + self.inputs.cli_argv(self.spec, out)
        child = launch(argv, self.tmp / f"{label}-log", self.remaining())
        self.attempted += 1
        self.longest = max(self.longest, child.wall_s)
        check = verify(self.name, child, out, self.inputs, self.shipped_seed)
        problems = check["problems"] + (extra_check() if extra_check else [])
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        self.reference = check["reference"]
        shutil.rmtree(out, ignore_errors=True)
        return child


def window(seconds: float):
    """Step numbers of one run's measuring window. A step (one probe and
    invocation, or one plain and traced pair) starts only if a step as long
    as the longest so far still ends within ``seconds``, so a run does not
    overrun its window, whatever the step length; the first
    ``MIN_INVOCATIONS`` steps always run."""
    deadline = time.monotonic() + seconds
    longest, step = 0.0, 0
    while step < MIN_INVOCATIONS or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        yield step
        longest = max(longest, time.monotonic() - start)
        step += 1


PLAIN = [sys.executable, "-m", "varentropy_lab"]


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    import ref_kernel  # numpy and scipy, only once the sources are known to exist

    # the warm-up probe fills the bytecode cache; then one probe before each
    # invocation, so set-up is sampled over the same window as wall time.
    # The reference kernel runs between invocations: each invocation's wall
    # time is divided by the mean of the kernel passes just before and after.
    warm_up = run.probe_setup("setup-warm-up")
    versions = json.loads(warm_up.stdout.read_text().strip().splitlines()[-1])
    ref_kernel.run()
    ref_before = ref_kernel.run()
    setup_times, walls, refs, ratios, rss = [], [], [], [], []
    for i in window(seconds):
        if not run.has_time_for(1):
            break
        setup_times.append(run.probe_setup(f"setup{i}").wall_s)
        child = run.invoke(PLAIN, f"plain{i}")
        ref_after = ref_kernel.run()
        walls.append(child.wall_s)
        refs.append(0.5 * (ref_before + ref_after))
        ratios.append(child.wall_s / refs[-1])
        rss.append(child.rss_mb)
        ref_before = ref_after
    stats = {"wall_rel": summarize(ratios), "wall_s": summarize(walls),
             "ref_kernel_s": summarize(refs), "setup_s": summarize(setup_times),
             "peak_rss_mb": summarize(rss)}
    metrics = {k: stats[k]["median"] for k in END_TO_END_UNITS}
    return metrics, {"stats": stats, "env": environment(versions)}


def layer_metrics(doc: dict, overhead_s: float) -> dict:
    """Per-layer metrics from one traced run's spans."""
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur(s)

    def self_time(s):
        return dur(s) - child_time.get(s["id"], 0.0)

    def outer(group):
        """Spans of ``group`` not nested in another span of the same group."""
        found = []
        for s in spans:
            if s["group"] != group:
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["group"] != group:
                parent = by_id[parent]["parent"]
            if parent is None:
                found.append(s)
        return found

    def total(group):
        return sum(dur(s) for s in outer(group))

    def count(group, key):
        return sum(s.get(key, 0) for s in outer(group))

    def per(time_s, work, scale):
        return time_s * scale / work if work else 0.0

    runs = outer("run")
    node_steps, states = count("solve", "node_steps"), count("report", "states")
    path_steps = count("simulate", "path_steps")
    bins = count("backward_drift", "bins")
    return {
        "cli.self_s": sum(self_time(s) for s in outer("main")),
        "scenarios.parse_s": total("parse"),
        "scenarios.parse_calls": len(outer("parse")),
        "scenarios.run_self_s": sum(self_time(s) for s in runs),
        "scenarios.member_checks_failed": sum(
            s.get("checks_failed", 0) for s in runs
            if s["parent"] is not None and by_id[s["parent"]]["group"] == "sweep"),
        "drifts.drift_calls": len(outer("drift")),
        "drifts.drift_s": total("drift"),
        "fokker_planck.solve_calls": len(outer("solve")),
        "fokker_planck.solve_s": total("solve"),
        "fokker_planck.node_steps": node_steps,
        "fokker_planck.ns_per_node_step": per(total("solve"), node_steps, 1e9),
        "functionals.report_s": total("report"),
        "functionals.report_states": states,
        "functionals.us_per_state": per(total("report"), states, 1e6),
        "functionals.scalar_calls": len(outer("scalar")),
        "functionals.scalar_s": total("scalar"),
        "monte_carlo.simulate_s": total("simulate"),
        "monte_carlo.path_steps": path_steps,
        "monte_carlo.ns_per_path_step": per(total("simulate"), path_steps, 1e9),
        "monte_carlo.martingale_s": total("martingale"),
        "monte_carlo.mc_functionals_s": total("mc_functionals"),
        "monte_carlo.backward_drift_s": total("backward_drift"),
        "monte_carlo.bins_defined_ratio": (
            count("backward_drift", "bins_defined") / bins if bins else 0.0),
        "trace.overhead_s": overhead_s,
    }


def check_spans(name: str, doc: dict) -> list[str]:
    problems = []
    missing = REQUIRED_SPANS[name] - set(doc["fired"])
    if missing:
        problems.append(f"wrappers did not fire: {sorted(missing)}")
    if name in GRID_ONLY:
        mc = sorted({s["name"] for s in doc["spans"] if s["layer"] == "monte_carlo"})
        if mc:
            problems.append(f"monte_carlo wrappers fired on a grid-only workload: {mc}")
    return problems


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Pairs of one plain and one traced invocation for ``seconds``."""
    traced_head = [sys.executable, str(BENCH / "trace_run.py")]
    per_pair, plain_walls, traced_walls, versions = [], [], [], {}
    for i in window(seconds):
        if not run.has_time_for(2):
            break
        plain_walls.append(run.invoke(PLAIN, f"plain{i}").wall_s)
        spans_path = run.tmp / f"spans{i}.json"
        docs = []

        def spans_check():
            if not spans_path.exists():
                return ["no spans written"]
            docs.append(json.loads(spans_path.read_text()))
            return check_spans(run.name, docs[0])

        traced = run.invoke(traced_head + [str(spans_path), "--"], f"traced{i}", spans_check)
        traced_walls.append(traced.wall_s)
        if not docs:
            break
        versions = docs[0]["versions"]
        per_pair.append(layer_metrics(docs[0], traced.wall_s - plain_walls[-1]))
        shutil.copyfile(spans_path, WORK / "results" / f"{run.name}-spans.json")
    metrics = {k: statistics.median(m[k] for m in per_pair) for k in PER_LAYER_UNITS} \
        if per_pair else {}
    return metrics, {"stats": {"plain_wall_s": summarize(plain_walls),
                               "traced_wall_s": summarize(traced_walls)},
                     "env": environment(versions)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 mc_seed: int | None) -> tuple[dict, dict]:
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    os.sched_setaffinity(0, {bench_cpu()})  # inherited by every child
    run = Run(name, mc_seed)
    try:
        if trace:
            metrics, record = measure_traced(run, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, record = measure_end_to_end(run, seconds)
            units = END_TO_END_UNITS
    finally:
        run.close()
    correct = run.failed == 0 and not run.problems and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record.update({
        "workload": name, "seed": seed, "mc_seed": run.inputs.mc_seed, "trace": int(trace),
        "seconds": seconds, "fail_ratio": result["failed"] / max(run.attempted, 1),
        "problems": run.problems, "reference": run.reference,
    })
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.write_text(json.dumps({"result": result, "record": record}, indent=1))
    return result, record


def capture_reference():
    """Write every workload's outputs at the shipped seed to ``reference/``."""
    for name, spec in WORKLOADS.items():
        run = Run(name, None)
        try:
            target = REFERENCE / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            argv = PLAIN + run.inputs.cli_argv(spec, target)
            child = launch(argv, run.tmp / "capture", run.remaining())
            if child.code != 0:
                raise SetupError(f"{name}: exit code {child.code}: {child.tail()}")
            print(f"{name}: reference written to {target.relative_to(ROOT)}")
        finally:
            run.close()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # a terminated run still kills its child and removes its temporary directory
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed, recorded with the result; the workloads are "
                        "the shipped configs, see --mc-seed")
    parser.add_argument("--mc-seed", type=int, default=None, dest="mc_seed",
                        help="Monte Carlo seed for relax_mc (default: the shipped one)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "varentropy_lab").is_dir() or not (ROOT / "configs").is_dir():
        print(f"no varentropy_lab sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.capture_reference:
            capture_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.mc_seed)
            results[name] = result
            print(json.dumps(record))
            for metric, entry in result["metrics"].items():
                print(f"  {name:<14} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
            if "wall_s" in record["stats"]:
                print(f"  {name:<14} {'wall_s (raw, not normalised)':<32} "
                      f"{record['stats']['wall_s']['median']:>14.6g} s")
            print(f"  {name:<14} {'fail_ratio':<32} {record['fail_ratio']:>14.6g} ratio"
                  f"  ({result['failed']}/{result['attempted']})")
    except SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""fenet benchmark: run one workload for a fixed time and print one JSON result line.

    python3 perfbench/run.py --workload ensemble_mincorr --seed 0 --seconds 20 --trace 0

Drives the public `fenet.cli` commands in-process, from this one process
(a closed loop of one client: each command starts when the previous one
has finished), on synthetic data generated from --seed. The program only
sees the generated config file.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:
set-up time (median of several set-ups), the median wall time of one
timed repeat of the workload's commands, work per second and peak memory.
Times are scaled to the reference machine speed measured by probe.py
between steps; the raw times and probe times are in the record line.
--trace 1 reports the per-layer metrics instead, from spans recorded
around fenet's public functions (see tracing.py), and checks the exact
per-repeat counts that define each workload and that little time runs
outside the traced functions.

Every command's CSVs are checked (check.py); a command that exits
non-zero, raises, or writes a CSV failing the check counts as failed.
The last line of standard output is the result; the line before it holds
the environment, sample counts and any problems found. Work files go
under .perfbench/ in the repository root and are removed at exit,
except the span dump of a traced run.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import check
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
KEPT_TRACED_REPEATS = 3  # traced repeats whose spans are written out
# Time outside every traced fenet function (cli.self_s) may be at most this
# share of the traced wall; seed-0 runs show 0.2-0.8%.
CLI_SELF_MAX = 0.05
FILTER_KINDS = ("identity", "discretize", "downsize", "grayscale", "octree", "lowpass", "highpass")
NN_LAYERS = ("Conv2D", "AvgPool2D", "Dense", "ReLU")


def parse_args(argv=None):
    def nonneg(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=nonneg, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"record the CSVs of one repeat at seed {REFERENCE_SEED} as the reference and exit")
    return p.parse_args(argv)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs one workload's commands in the current directory and checks their CSVs."""

    def __init__(self, cli, workload, seed, config_path, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.config_path = config_path
        self.reference = reference  # CSV name -> bytes, or None off the reference seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # CSV name -> bytes of its first run, for the repeat check

    def command(self, name):
        """Run `fenet <name>` on the config; True if it returned 0 without raising."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main([name, "--config", self.config_path])
        except Exception:
            self.problems.append(f"{name} raised:\n{traceback.format_exc()}")
            return False
        if rc != 0:
            self.problems.append(f"{name} exited with {rc}")
        return rc == 0

    def setup(self):
        from fenet import data

        cfg = self.workload.config(self.seed)["dataset"]
        t0 = time.perf_counter()
        data.synth_shapes(cfg["num_per_class"], size=cfg["size"], seed=cfg["train_seed"])
        data.synth_shapes(cfg["test_per_class"], size=cfg["size"], seed=cfg["test_seed"])
        for name in self.workload.setup_commands:
            if not self.command(name):
                raise RuntimeError(f"set-up command {name} failed: {self.problems[-1]}")
        return time.perf_counter() - t0

    def repeat(self, tracer=None):
        """One timed pass over the workload's commands; returns (wall seconds, exact CSVs)."""
        for name in os.listdir("out"):
            if name.endswith(".csv"):
                os.remove(os.path.join("out", name))
        ok = {}
        t0 = time.perf_counter()
        for name in self.workload.commands:
            if tracer is None:
                ok[name] = self.command(name)
            else:
                with tracer.span(f"cli.{name}"):
                    ok[name] = self.command(name)
        wall = time.perf_counter() - t0
        exact = 0
        for name in self.workload.commands:
            problems, n_exact = self._check(name)
            exact += n_exact
            self.attempted += 1
            if problems or not ok[name]:
                self.failed += 1
                self.problems.extend(problems)
        return wall, exact

    def _check(self, command):
        prefix = f"{command}_{self.workload.name}"
        names = sorted(n for n in os.listdir("out") if n.startswith(prefix) and n.endswith(".csv"))
        if not names:
            return [f"{command}: wrote no CSV"], 0
        problems, exact = [], 0
        if self.reference is not None:
            expected = sorted(n for n in self.reference if n.startswith(prefix))
            if names != expected:
                problems.append(f"{command}: wrote {names}, reference has {expected}")
        for name in names:
            with open(os.path.join("out", name), "rb") as fh:
                blob = fh.read()
            if self.first.setdefault(name, blob) != blob:
                problems.append(f"{name}: differs from the first run of the same config")
            try:
                text = blob.decode()
                problems += check.invariants(name, text)
                if self.reference is not None and name in self.reference:
                    exact += blob == self.reference[name]
                    problems += check.compare(name, text, self.reference[name].decode(), self.workload.test_images)
            except ValueError as e:  # a cell that is not a number, or bytes that are not text
                problems.append(f"{name}: unreadable: {e}")
        return problems, exact


def layer_metrics(spans, run_id, setup_agg, csv_exact):
    """Per-layer metrics of one traced repeat (data/model_io also count the traced set-up)."""
    agg = tracing.aggregate(spans, run_id)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": [], "counts": {}}

    def row(name, source=agg):
        return source.get(name, empty)

    def count(name, key, source=agg):
        return row(name, source)["counts"].get(key, 0)

    m = {}
    for kind in FILTER_KINDS:
        m[f"filters.apply.{kind}.s"] = row(f"filters.apply.{kind}")["s"]
        m[f"filters.apply.{kind}.calls"] = row(f"filters.apply.{kind}")["calls"]
    m["filters.apply_batch.calls"] = row("filters.apply_batch")["calls"]
    m["filters.apply_batch.images"] = count("filters.apply_batch", "images")
    m["filters.apply_batch.self_s"] = row("filters.apply_batch")["self_s"]
    m["filters.bpda_backward.calls"] = row("filters.bpda_backward")["calls"]
    m["filters.bpda_backward.s"] = row("filters.bpda_backward")["s"]
    for layer in NN_LAYERS:
        for part in ("forward", "backward_input", "backward_params"):
            m[f"nn.{layer}.{part}.s"] = row(f"nn.{layer}.{part}")["s"]
    conv = [f"nn.Conv2D.{part}" for part in ("forward", "backward_input", "backward_params")]
    gflop = sum(count(name, "flop") for name in conv) / 1e9
    conv_s = sum(row(name)["s"] for name in conv)
    m["nn.Conv2D.gflop"] = gflop
    m["nn.Conv2D.gflop_per_s"] = gflop / conv_s if conv_s else 0.0
    grads = row("nn.Network.grad_input_batch")
    ms = sorted(d * 1e3 for d in grads["durs"])
    m["nn.grad_input_batch.calls"] = grads["calls"]
    m["nn.grad_input_batch.images"] = count("nn.Network.grad_input_batch", "images")
    m["nn.grad_input_batch.ms_p50"] = statistics.median(ms) if ms else 0.0
    m["nn.grad_input_batch.ms_p90"] = ms[min(len(ms) - 1, int(0.9 * len(ms)))] if ms else 0.0
    m["nn.forward_batch.images"] = count("nn.Network.forward_batch", "images")
    m["nn.lipschitz_upper_bound.s"] = row("nn.Network.lipschitz_upper_bound")["s"]
    attacked = count("attacks.run_attack_batch", "images")
    m["attacks.run_attack_batch.self_s"] = row("attacks.run_attack_batch")["self_s"]
    m["attacks.grad_calls"] = tracing.count_under(
        spans, run_id, "nn.Network.grad_input_batch", "attacks.run_attack_batch")
    m["attacks.images"] = attacked
    m["attacks.success_ratio"] = count("attacks.run_attack_batch", "flipped") / attacked if attacked else 0.0
    m["ensemble.classify_batch.self_s"] = row("ensemble.Ensemble.classify_batch")["self_s"]
    m["ensemble.classify_batch.images"] = count("ensemble.Ensemble.classify_batch", "images")
    m["ensemble.certify_submodel.s"] = row("ensemble.certify_submodel")["s"]
    m["ensemble.certify_submodel.calls"] = row("ensemble.certify_submodel")["calls"]
    m["sensitivity.sample_sensitivities.self_s"] = row("sensitivity.sample_sensitivities")["self_s"]
    m["sensitivity.samples"] = count("sensitivity.sample_sensitivities", "samples")
    m["sensitivity.pearson_matrix.s"] = row("sensitivity.pearson_matrix")["s"]
    both = (agg, setup_agg)
    m["data.synth_shapes.s"] = sum(row("data.synth_shapes", a)["s"] for a in both)
    m["model_io.save_network.s"] = sum(row("model_io.save_network", a)["s"] for a in both)
    m["model_io.load_network.s"] = sum(row("model_io.load_network", a)["s"] for a in both)
    m["model_io.bytes"] = sum(count(n, "bytes", a) for a in both
                              for n in ("model_io.save_network", "model_io.load_network"))
    m["cli.self_s"] = sum(r["self_s"] for name, r in agg.items() if name.startswith("cli."))
    m["cli.csv_exact"] = csv_exact
    # Not reported; used by the structural checks.
    extra = {"nn.calls": sum(r["calls"] for name, r in agg.items() if name.startswith("nn."))}
    return m, extra


EXACT_SUFFIXES = (".calls", ".images", ".samples", ".bytes", ".grad_calls", ".gflop", ".csv_exact", "success_ratio")


def traced_stage(runner, tracer, seconds):
    """Pairs of untraced and traced repeats; per-layer metrics plus problems found."""
    tracer.run_id = "setup"
    tracer.install()
    try:
        runner.setup()
    finally:
        tracer.uninstall()
    setup_agg = tracing.aggregate(tracer.spans, "setup")
    runner.repeat()  # warm-up
    plain, traced, per_repeat, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.repeat()[0])
        run_id, first_span = len(traced), len(tracer.spans)
        tracer.run_id = run_id
        tracer.install()
        try:
            wall, exact = runner.repeat(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        m, extra = layer_metrics(tracer.spans, run_id, setup_agg, exact)
        if run_id >= KEPT_TRACED_REPEATS:
            del tracer.spans[first_span:]  # bounded memory; metrics are already taken
        if m["cli.self_s"] > CLI_SELF_MAX * wall:
            problems.append(f"repeat {run_id}: cli.self_s = {m['cli.self_s']:.6f} s of a {wall:.6f} s traced wall "
                            f"ran outside every traced fenet function (at most {CLI_SELF_MAX:.0%} allowed)")
        for name, want in runner.workload.expect.items():
            got = {**m, **extra}[name]
            if got != want:
                problems.append(f"repeat {run_id}: {name} = {got}, expected {want}")
        want = runner.workload.reference_success_ratio
        if runner.reference is not None and want is not None:
            # one attacked image-radius may change outcome
            if abs(m["attacks.success_ratio"] - want) > 1 / m["attacks.images"] + 1e-9:
                problems.append(f"repeat {run_id}: attacks.success_ratio = {m['attacks.success_ratio']}, "
                                f"reference {want} at seed {REFERENCE_SEED}")
        per_repeat.append(m)
    for name in per_repeat[0]:
        if name.endswith(EXACT_SUFFIXES) and len({m[name] for m in per_repeat}) > 1:
            problems.append(f"{name} differs between traced repeats: {[m[name] for m in per_repeat]}")
    metrics = {name: statistics.median_low(m[name] for m in per_repeat) for name in per_repeat[0]}
    # Each traced repeat runs right after its untraced twin, so both see the same machine state.
    metrics["trace.overhead_ratio"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    samples = {"traced_s": traced, "untraced_s": plain}
    return metrics, samples, problems


def timed_stage(runner, seconds, probe):
    """Set-ups and repeats, each scaled to the reference machine speed (probe.py)."""

    def scaled(step):
        # Each step is bracketed by probes; the step before shares the first one.
        wall = step()
        probes.append(probe.probe())
        return wall * probe.REFERENCE_S / ((probes[-2] + probes[-1]) / 2)

    probes = [probe.probe()]
    setups = [scaled(runner.setup) for _ in range(SETUP_REPEATS)]
    runner.repeat()  # warm-up
    probes.append(probe.probe())
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(scaled(lambda: runner.repeat()[0]))
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": runner.workload.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": setups, "wall_s": walls, "probe_s": probes}
    return metrics, samples, []


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_reference(workload):
    ref_dir = os.path.join(REFERENCE_DIR, workload.name)
    refs = {}
    for name in sorted(os.listdir(ref_dir)):
        with open(os.path.join(ref_dir, name), "rb") as fh:
            refs[name] = fh.read()
    return refs


def write_reference(runner, workload):
    runner.setup()
    runner.repeat()
    if runner.failed:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    ref_dir = os.path.join(REFERENCE_DIR, workload.name)
    shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(ref_dir)
    for name in sorted(os.listdir("out")):
        if name.endswith(".csv"):
            shutil.copyfile(os.path.join("out", name), os.path.join(ref_dir, name))
            print("reference", os.path.join(ref_dir, name), file=sys.stderr)
    return 0


def main(argv=None):
    args = parse_args(argv)
    # One process generates the load; one BLAS thread keeps it within nproc
    # and keeps timings steady on a small shared machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import probe  # imports numpy, so only after the thread variables are set

    sys.path.insert(0, SRC)
    try:
        import fenet
        from fenet import cli
    except ImportError as e:
        print(f"perfbench: cannot import fenet from {SRC}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.realpath(fenet.__file__)) != os.path.realpath(os.path.join(SRC, "fenet")):
        print(f"perfbench: imported fenet from {fenet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"perfbench: references are recorded at seed {REFERENCE_SEED}", file=sys.stderr)
        return 2

    work = os.path.join(OUT_ROOT, "work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config(args.seed), fh, indent=2, sort_keys=True)
    os.chdir(work)  # the config's out_dir is relative, so the CSV provenance line is the same everywhere
    try:
        if args.write_reference:
            return write_reference(Runner(cli, workload, args.seed, config_path, None), workload)
        reference = load_reference(workload) if args.seed == REFERENCE_SEED else None
        runner = Runner(cli, workload, args.seed, config_path, reference)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            metrics, samples, problems = traced_stage(runner, tracer, args.seconds)
        else:
            metrics, samples, problems = timed_stage(runner, args.seconds, probe)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    problems = runner.problems + problems
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "items_per_repeat": workload.items, "item_unit": workload.item_unit, "samples": samples,
        "failed_ratio": runner.failed / runner.attempted, "env": environment(), "problems": problems[:20],
    }
    if tracer:
        os.makedirs(OUT_ROOT, exist_ok=True)
        dump = os.path.join(OUT_ROOT, f"spans_{workload.name}_seed{args.seed}.json")
        with open(dump, "w") as fh:
            json.dump({**record, "fields": ["name", "start", "end", "parent", "run", "counts"],
                       "spans": tracer.spans}, fh)
        record["spans"] = os.path.relpath(dump, ROOT)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

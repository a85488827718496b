"""The trophodge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process, one thread: after set-up it
calls `trophodge.cli.main([...])` on generated JSON inputs, one op after
another (a closed loop with one client), and checks every op's output
against invariants known independently of trophodge. Each pass runs the
workload's whole op list; passes repeat while the next one should end
within S seconds.

With --trace 0 the last line of standard output holds the end-to-end
metrics, medians over passes, with times at the reference speed (see
HostProbe). With --trace 1 the run makes one untraced pass, then wraps
trophodge's public functions from outside (perfbench/tracer.py) and
reports per-layer metrics from traced passes; the spans go to .perfbench/
at exit. The line before the last is a fuller report: time per command,
quartiles and sample counts, and the wall times.

See perfbench/NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# op = (command, input name, extra arguments); "{seed}" is replaced by --seed.
# The last op of bergman-page, check-all on the smallest grid, takes about 4%
# of its pass; it is there so that every layer of the trace is reached on
# every workload (see NOTES.md).
WORKLOADS = {
    "bergman-page": [op for fan in ("u35", "b4") for op in (
        ("chow", fan, ["--degrees", "all"]),
        ("mw", fan, ["-k", "1"]),
        ("steenbrink", fan, []),
        ("cs-check", fan, []),
    )] + [("hodge-cycle", "u35", ["--p", "2"]), ("check-all", "grid1", ["--seed", "{seed}"])],
    "grid-checkall": [("check-all", x, ["--seed", "{seed}"]) for x in ("grid3", "prod")],
}

# Set-up rounds: SETUP_FIRST before the first pass, then one between ops
# whenever SETUP_EVERY seconds have gone by since the last, so that the
# rounds sample the same stretch of time as the passes.
SETUP_FIRST = 2
SETUP_EVERY = 5.0


# ---------------------------------------------------------------------------
# Host speed. The measuring host runs the same code up to twice as fast in
# some stretches as in others, in phases of a second to minutes (NOTES.md),
# so the wall times of two runs differ by more than a useful bound. The run
# therefore times a fixed reference loop every PROBE_EVERY seconds, during
# the ops too, and reports every time at the reference speed: an op's
# seconds x REF_SECONDS / the median time of the probes that fell inside it
# (of the probes in its pass if none did), a set-up round's seconds x
# REF_SECONDS / the median time of all probes of the run. A change to
# trophodge cannot change the reference loop. The fuller report keeps the
# wall times.

PROBE_EVERY = 0.25
REF_SECONDS = 0.005


def reference_loop() -> float:
    """Seconds taken by a fixed piece of exact arithmetic that shares no code
    with trophodge: a sum of fractions, then Gaussian elimination over the
    rationals of a sparse 12 x 12 integer matrix stored as dicts, the kind of
    work trophodge's own elimination does."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 801):
        total += Fraction(1, k % 97 + 1)
    rng = random.Random(1)
    n = 12
    rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.5} for _ in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i].get(c)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r]
        for row in rows[r + 1:]:
            f = row.get(c)
            if f:
                f = f / pivot[c]
                for j, v in pivot.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
        r += 1
    return perf_counter() - start


class HostProbe:
    """Runs the reference loop every PROBE_EVERY seconds of wall time from a
    SIGALRM handler, between two bytecodes of whatever runs then. `busy` is
    the time spent in probes so far: a timed stretch subtracts the part that
    fell inside it."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _probe(self, signum, frame):
        seconds = reference_loop()
        self.samples.append(seconds)
        self.busy += seconds

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


PROBE = HostProbe()


# ---------------------------------------------------------------------------
# Invariants. Each check returns a list of problems; empty means the op passed.

def _check_cohomology(out, inp, argv):
    want = {f"h^{p},{q}": (inp.diagonal[p] if p == q else 0)
            for p in range(inp.dim + 1) for q in range(inp.dim + 1)}
    got = out.get("hodge_numbers")
    return ([] if out.get("dim") == inp.dim else [f"dim {out.get('dim')}"]) + \
        ([] if got == want else [f"hodge numbers {got} != {want}"])


def _check_chow(out, inp, argv):
    want = {str(p): h for p, h in enumerate(inp.diagonal)}
    return [] if out.get("chow_dims") == want else [f"chow dims {out.get('chow_dims')} != {want}"]


def _check_mw(out, inp, argv):
    k = int(argv[argv.index("-k") + 1])
    want = inp.diagonal[inp.dim - k]  # MW_k is dual to A^{d-k}
    basis = out.get("basis", {})
    return [] if out.get("rank") == want == len(basis) else [f"mw rank {out.get('rank')} != {want}"]


def _check_steenbrink(out, inp, argv):
    # On a fan the only bounded face is the origin: every table is the diagonal.
    diag = inp.diagonal
    want = {
        "blocks": {f"(0,{2 * p},0)": h for p, h in enumerate(diag)},
        "row_cohomology": {f"H^0(b={2 * p})": h for p, h in enumerate(diag)},
        "surviving": {f"({p},{p})": h for p, h in enumerate(diag)},
        "relative": {f"({p},{p})": h for p, h in enumerate(diag)},
        "hard_lefschetz": True,
    }
    return [f"{key} {out.get(key)} != {val}" for key, val in want.items() if out.get(key) != val]


def _check_cs(out, inp, argv):
    bad = [f"{p}:{node}" for p, nodes in out.get("junctions", {}).items()
           for node, j in nodes.items() if j.get("exact") is not True]
    problems = [] if out.get("all_exact") is True else ["all_exact is not true"]
    return problems + [f"inexact junctions {bad}"] if bad else problems


def _check_hodge_cycle(out, inp, argv):
    p = int(argv[argv.index("--p") + 1])
    problems = [] if out.get("count") == inp.diagonal[p] else [f"count {out.get('count')}"]
    bad = [i for i, c in out.get("cycles", {}).items()
           if c.get("verification", {}).get("class_matches") is not True]
    return problems + ([f"classes not matched {bad}"] if bad else [])


def _check_check_all(out, inp, argv):
    d = inp.dim
    names = {"cellular-complexes-square-zero", "hard-lefschetz", "psi-identities", "clemens-schmid"}
    for b in range(0, 2 * d + 1, 2):
        names |= {f"steenbrink-d2-zero-b{b}", f"steenbrink-vs-cellular-b{b}", f"mapping-cone-p{b}"}
    for p in range(d + 1):
        names |= {f"kernel-pairing-p{p}", f"hodge-roundtrip-p{p}"}
    checks = out.get("checks", {})
    problems = [] if set(checks) == names else [f"checks {sorted(set(checks) ^ names)} differ"]
    problems += [f"{k} {v}" for k, v in sorted(checks.items()) if v != "pass"]
    seed = int(argv[argv.index("--seed") + 1])
    if out.get("all") is not True or out.get("seed") != seed:
        problems.append(f"all={out.get('all')} seed={out.get('seed')}")
    return problems


CHECKS = {
    "cohomology": _check_cohomology,
    "chow": _check_chow,
    "mw": _check_mw,
    "steenbrink": _check_steenbrink,
    "cs-check": _check_cs,
    "hodge-cycle": _check_hodge_cycle,
    "check-all": _check_check_all,
}


# ---------------------------------------------------------------------------
# Running ops

def op_argv(op, path: str, seed: int) -> list[str]:
    command, _, extra = op
    return [command, path] + [a.replace("{seed}", str(seed)) for a in extra]


def run_op(cli_main, argv, tracer=None):
    """Run one op in-process; returns (exit code or None, stdout, seconds, traceback or "").

    The seconds leave out the host probes that fell inside the op."""
    buf = io.StringIO()
    tb = ""
    busy = PROBE.busy
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv) if tracer is None else tracer.span("cli", cli_main, (argv,))
    except (Exception, SystemExit):  # a traceback or an argparse exit fails the op
        rc, tb = None, traceback.format_exc()
    return rc, buf.getvalue(), perf_counter() - start - (PROBE.busy - busy), tb


def op_problems(op, inp, argv, rc, stdout, tb) -> list[str]:
    if tb:
        return [tb.strip().splitlines()[-1]]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if "error" in out:
        return problems + [f"{out['error']}: {out.get('detail')}"]
    return problems + CHECKS[op[0]](out, inp, argv)


def run_pass(cli_main, ops, inputs, seed, tracer=None, between_ops=None) -> dict:
    """Run every op once; returns its seconds per op at the reference speed, its
    wall seconds and failures, and when traced its first span and counters. A
    traced op also checks each compactification's face count. `between_ops()`,
    if given, is called before each op, untimed."""
    first_span = len(tracer.spans) if tracer else 0
    times, probes, failures = [], [], []
    for op in ops:
        if between_ops:
            between_ops()
        inp, path = inputs[op[1]]
        argv = op_argv(op, path, seed)
        gc.collect()
        if tracer:
            calls, faces = (tracer.counters[f"polyhedral.compactify.{k}"] for k in ("calls", "faces_out"))
        first_probe = len(PROBE.samples)
        rc, stdout, seconds, tb = run_op(cli_main, argv, tracer)
        times.append(seconds)
        probes.append(PROBE.samples[first_probe:])
        problems = op_problems(op, inp, argv, rc, stdout, tb)
        if tracer:
            calls = tracer.counters["polyhedral.compactify.calls"] - calls
            faces = tracer.counters["polyhedral.compactify.faces_out"] - faces
            if faces != calls * inp.faces_closed:
                problems.append(f"{calls} compactifications gave {faces} faces, "
                                f"expected {inp.faces_closed} each")
        if problems:
            failures.append({"op": " ".join([op[0], op[1]] + argv[2:]), "problems": problems})
    in_pass = [t for p in probes for t in p] or PROBE.samples
    op_seconds = [REF_SECONDS * t / statistics.median(p or in_pass) for t, p in zip(times, probes)]
    result = {"seconds": sum(op_seconds), "op_seconds": op_seconds, "wall_seconds": sum(times),
              "failures": failures}
    if tracer:
        result["first_span"] = first_span
        result["counters"] = tracer.take_counters()
    return result


def measure(cli_main, ops, inputs, seed, seconds, tracer=None, between_ops=None) -> list[dict]:
    """One pass, then more while the next one should end within `seconds` of
    wall time (judged by the longest pass so far)."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(cli_main, ops, inputs, seed, tracer, between_ops))
        if perf_counter() - start + max(p["wall_seconds"] for p in passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics

def summary(values) -> dict:
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def command_times(ops, passes) -> dict:
    per_pass = []
    for p in passes:
        totals: dict[str, float] = {}
        for op, t in zip(ops, p["op_seconds"]):
            totals[op[0]] = totals.get(op[0], 0.0) + t
        per_pass.append(totals)
    return {f"cmd.{c}_s": summary([t[c] for t in per_pass]) for c in per_pass[0]}


LAYER_SELF = {
    "polyhedral.load.self_s": ["polyhedral.load"],
    "polyhedral.compactify.self_s": ["polyhedral.compactify"],
    "polyhedral.star_fan.self_s": ["polyhedral.star_fan"],
    "polyhedral.sign.self_s": ["polyhedral.sign"],
    "lattice.self_s": ["lattice"],
    "linalg.self_s": ["linalg.rank", "linalg.kernel_basis", "linalg.solve", "linalg.other"],
    "cohomology.cochain_complex.self_s": ["cohomology.cochain_complex"],
    "cohomology.h_basis.self_s": ["cohomology.h_basis"],
    "cohomology.self_s": ["cohomology.cochain_complex", "cohomology.h_basis",
                            "cohomology.coordinates", "cohomology.other"],
    "chow.self_s": ["chow.ring_of", "chow.other"],
    "steenbrink.d_matrix.self_s": ["steenbrink.d_matrix"],
    "steenbrink.kr_complex.self_s": ["steenbrink.kr_complex"],
    "steenbrink.verify_hl.self_s": ["steenbrink.verify_hl"],
    "steenbrink.psi.self_s": ["steenbrink.psi"],
    "steenbrink.self_s": ["steenbrink.d_matrix", "steenbrink.kr_complex", "steenbrink.verify_hl",
                            "steenbrink.psi", "steenbrink.other"],
    "clemens_schmid.tropical_cs.self_s": ["clemens_schmid.tropical_cs"],
    "clemens_schmid.mapping_cone.self_s": ["clemens_schmid.mapping_cone"],
    "hodge_cycles.locus.self_s": ["hodge_cycles.locus"],
    "hodge_cycles.to_cycle.self_s": ["hodge_cycles.to_cycle"],
    "hodge_cycles.num_vs_hom.self_s": ["hodge_cycles.num_vs_hom"],
    "hodge_cycles.self_s": ["hodge_cycles.locus", "hodge_cycles.to_cycle",
                              "hodge_cycles.num_vs_hom", "hodge_cycles.other"],
    "cli.self_s": ["cli"],
}

LAYER_COUNTS = [
    "polyhedral.load.calls", "polyhedral.load.faces",
    "polyhedral.compactify.calls", "polyhedral.compactify.faces_out",
    "polyhedral.star_fan.calls", "polyhedral.sign.calls", "lattice.calls",
    "linalg.rank.calls", "linalg.kernel_basis.calls", "linalg.solve.calls",
    "linalg.entries", "linalg.nnz", "linalg.max_cols",
    "cohomology.cochain_complex.calls", "cohomology.cochain_dim", "cohomology.d_nnz",
    "cohomology.h_basis.calls", "cohomology.coordinates.calls",
    "chow.ring_of.calls", "steenbrink.d_matrix.calls", "steenbrink.d_nnz", "steenbrink.psi.calls",
]


def layer_metrics(tracer, passes, base_seconds) -> dict:
    """Per-layer values of each traced pass, then their medians; self times
    are scaled to the reference speed like the pass."""
    bounds = [p["first_span"] for p in passes] + [len(tracer.spans)]
    rows = []
    for p, lo, hi in zip(passes, bounds, bounds[1:]):
        self_s = tracer.self_times(lo, hi)
        speed = p["seconds"] / p["wall_seconds"]
        row = {k: speed * sum(self_s.get(n, 0.0) for n in names) for k, names in LAYER_SELF.items()}
        counters = p["counters"]
        row.update({k: counters.get(k, 0) for k in LAYER_COUNTS})
        calls = counters.get("cohomology.h_basis.calls", 0)
        row["cohomology.h_basis.distinct_ratio"] = counters["cohomology.h_basis.distinct"] / calls if calls else 0.0
        row["trace.pass_s"] = p["seconds"]
        row["trace.overhead_ratio"] = p["seconds"] / base_seconds
        row["trace.spans"] = hi - lo
        rows.append(row)
    return {k: summary([r[k] for r in rows]) for k in rows[0]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------

def _program_module(name: str) -> bool:
    return name == "inputs" or name.partition(".")[0] == "trophodge"


def load_program():
    """Import trophodge from this checkout's src/ and the input generators afresh.

    Returns (cli main, inputs module)."""
    if not os.path.isfile(os.path.join(SRC, "trophodge", "__init__.py")):
        raise FileNotFoundError(f"no trophodge sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for mod in [m for m in sys.modules if _program_module(m)]:
        del sys.modules[mod]
    cli = importlib.import_module("trophodge.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"trophodge imported from {cli.__file__}, not from {SRC}")
    return cli.main, importlib.import_module("inputs")


def set_up(input_names, seed):
    """One set-up round: import trophodge afresh, generate the inputs and write them.

    Returns (seconds, cli main, work dir, name -> (Input, path))."""
    busy = PROBE.busy
    start = perf_counter()
    cli_main, inputs_mod = load_program()
    work = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    written = inputs_mod.write_inputs(input_names, seed, work)
    return perf_counter() - start - (PROBE.busy - busy), cli_main, work, written


def set_up_aside(input_names, seed) -> float:
    """A set-up round whose program is then dropped: the modules the passes use
    go back into sys.modules, since trophodge imports some names inside
    functions. Returns its seconds."""
    saved = {m: mod for m, mod in sys.modules.items() if _program_module(m)}
    try:
        seconds, _, work, _ = set_up(input_names, seed)
    finally:
        for mod in [m for m in sys.modules if _program_module(m)]:
            del sys.modules[mod]
        sys.modules.update(saved)
    shutil.rmtree(work)
    return seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    ops = WORKLOADS[name]
    names = sorted({op[1] for op in ops})
    os.makedirs(OUT, exist_ok=True)
    PROBE.start()
    try:
        setup_times = [set_up_aside(names, seed) for _ in range(SETUP_FIRST - 1)]
        seconds_0, cli_main, work, inputs = set_up(names, seed)  # the program the passes run
        setup_times.append(seconds_0)
        last_setup = perf_counter()

        def set_up_now_and_then():
            nonlocal last_setup
            if perf_counter() - last_setup >= SETUP_EVERY:
                setup_times.append(set_up_aside(names, seed))
                last_setup = perf_counter()

        try:
            if not trace:
                passes = measure(cli_main, ops, inputs, seed, seconds, between_ops=set_up_now_and_then)
            else:
                from tracer import Tracer
                base = run_pass(cli_main, ops, inputs, seed)
                tracer = Tracer()
                tracer.install()
                try:
                    passes = [base] + measure(cli_main, ops, inputs, seed, seconds - base["wall_seconds"],
                                              tracer)
                finally:
                    tracer.uninstall()
        finally:
            shutil.rmtree(work)
    finally:
        PROBE.stop()

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "wall": {"pass_seconds": [p["wall_seconds"] for p in passes], "setup_seconds": setup_times,
                       "reference_seconds": summary(PROBE.samples)},
              "ops_per_pass": len(ops), "failures": failures[:20]}
    timed = passes[1:] if trace else passes
    if trace:
        metrics = layer_metrics(tracer, timed, base["seconds"])
        tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.tsv"))
    else:
        metrics = {
            "pass_s": summary([p["seconds"] for p in passes]),
            "setup_s": summary([REF_SECONDS * t / statistics.median(PROBE.samples) for t in setup_times]),
            "peak_rss_mib": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1},
            "ops_passed_ratio": {"median": (attempted - len(failures)) / attempted, "n": attempted},
        }
    report["metrics"] = {k: {"unit": unit_of(k), **v} for k, v in metrics.items()}
    report["commands"] = {k: {"unit": "s", **v} for k, v in command_times(ops, timed).items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["median"], "unit": unit_of(k)} for k, v in metrics.items()},
    }, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trophodge benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: tracing must not change what trophodge
prints, the known defects must still fail as listed, and host probes must
stay out of the time of an op.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

CLI_MAIN, INPUTS = run.load_program()

from tracer import Tracer  # noqa: E402

GRID1_OPS = [
    ("cohomology", "grid1", []),
    ("steenbrink", "grid1", []),
    ("cs-check", "grid1", []),
    ("hodge-cycle", "grid1", ["--p", "1"]),
    ("check-all", "grid1", ["--seed", "{seed}"]),
]

# Ops that fail on the seed code the same way on every run (see NOTES.md,
# "Known defects"), with the detail of the error each one prints. They are
# in no workload, because a workload must have no failing op. When one of
# them stops failing this way, the defect was fixed or changed: move the op
# into its workload and drop it here.
KNOWN_DEFECTS = [
    (("hodge-cycle", "u35", ["--p", "1"]), "glued weight violates balancing"),
    (("hodge-cycle", "b4", ["--p", "1"]), "x_eta classes of maximal cones disagree"),
    (("check-all", "shear", ["--seed", "{seed}"]), "vector is not a cocycle of this space"),
]


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    written = INPUTS.write_inputs(["grid1"], 5, str(tmp_path))
    inp, path = written["grid1"]
    plain = []
    for op in GRID1_OPS:
        argv = run.op_argv(op, path, 5)
        rc, stdout, _, tb = run.run_op(CLI_MAIN, argv)
        assert rc == 0 and not tb
        plain.append((rc, stdout))

    tracer = Tracer()
    tracer.install()
    try:
        traced = [run.run_op(CLI_MAIN, run.op_argv(op, path, 5), tracer)[:2] for op in GRID1_OPS]
    finally:
        tracer.uninstall()
    assert traced == plain
    # The diamond is P^1 x P^1's, and every check-all verdict passes.
    for op, (rc, stdout) in ((GRID1_OPS[0], plain[0]), (GRID1_OPS[-1], plain[-1])):
        assert run.op_problems(op, inp, run.op_argv(op, path, 5), rc, stdout, "") == []

    names = {span[0] for span in tracer.spans}
    assert {"cli", "polyhedral.load", "polyhedral.compactify", "linalg.solve",
            "cohomology.h_basis", "steenbrink.d_matrix", "hodge_cycles.locus"} <= names
    assert tracer.counters["polyhedral.compactify.faces_out"] == \
        inp.faces_closed * tracer.counters["polyhedral.compactify.calls"]


def test_uninstall_restores_every_function():
    import trophodge.cli as cli
    import trophodge.cohomology as cohomology
    import trophodge.linalg as linalg
    before = (cli.compactify, cohomology.kernel_basis, linalg.solve, cohomology.GradedComplex.h_basis)
    tracer = Tracer()
    tracer.install()
    assert cli.compactify is not before[0] and cohomology.kernel_basis is not before[1]
    tracer.uninstall()
    assert (cli.compactify, cohomology.kernel_basis, linalg.solve,
            cohomology.GradedComplex.h_basis) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0),
                       ("leaf", 3.0, 4.0, 1)]
    assert dict(tracer.self_times(0, 4)) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


@pytest.mark.parametrize("op,detail", KNOWN_DEFECTS, ids=[" ".join(op[:2]) for op, _ in KNOWN_DEFECTS])
def test_known_defect_still_fails(op, detail, tmp_path):
    inp, path = INPUTS.write_inputs([op[1]], 5, str(tmp_path))[op[1]]
    argv = run.op_argv(op, path, 5)
    rc, stdout, _, tb = run.run_op(CLI_MAIN, argv)
    assert run.op_problems(op, inp, argv, rc, stdout, tb) == [
        "exit code 1", f"verification-failed: {detail}"]


def test_probe_time_is_left_out_of_an_op():
    """Probes fire while an op runs, and the op's seconds do not count them."""
    probe = run.HostProbe()
    saved, run.PROBE = run.PROBE, probe

    def op(argv):
        while len(probe.samples) < 2:
            pass
        return 0

    try:
        probe.start()
        start = run.perf_counter()
        rc, _, seconds, _ = run.run_op(op, [])
        wall = run.perf_counter() - start
    finally:
        probe.stop()
        run.PROBE = saved
    assert rc == 0
    assert wall - seconds >= sum(probe.samples[:2]) > 0

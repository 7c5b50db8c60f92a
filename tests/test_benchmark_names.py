"""The names the benchmark reaches in stiefelsum still exist.

perfbench/tracing.py times layers by wrapping functions at their names,
and perfbench/workloads.py calls entry points by name. A renamed or
deleted target would not fail the benchmark: a hook that finds nothing
reports a per-layer metric of 0. These tests read perfbench's files and
never edit them.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from stiefelsum import harness, sdp
from stiefelsum.generators import gen_separated_diagonal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# hooks whose targets were deleted from stiefelsum while the benchmark
# still names them; traced runs report them missing. Every other hook
# must resolve.
DEAD_HOOKS = {("stiefelsum.ipm", "DenseOps.schur"),
              ("stiefelsum.certificate", "solve_ipm")}

# the entry points the workloads call, as module.attribute paths
ENTRY_POINTS = {
    "stiefelsum.sdp.solve_sdp", "stiefelsum.sdp.extract_candidate",
    "stiefelsum.stiefel.SolverConfig.for_hppca",
    "stiefelsum.stiefel.random_stiefel", "stiefelsum.stiefel.stmm_solve",
    "stiefelsum.certificate.certify", "stiefelsum.harness.run_rop_table",
    "stiefelsum.harness.solve_sdp", "stiefelsum.core.normalize_instance",
    "stiefelsum.hppca.build_instance", "stiefelsum.hppca.make_model",
    "stiefelsum.hppca.sample",
}


def _resolve(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name, None)
    return owner


def test_every_live_hook_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = {(module, path) for module, path, _, _ in tracing.HOOKS}
    missing = {hook for hook in hooks if not callable(_resolve(*hook))}
    assert hooks - DEAD_HOOKS and missing <= DEAD_HOOKS


def _names_used(tree):
    """module.attribute paths that workloads.py reads from stiefelsum:
    attribute chains on an imported stiefelsum module, and the names of
    each "from stiefelsum.x import ..."."""
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "stiefelsum":
            modules.update((a.asname or a.name, f"stiefelsum.{a.name}")
                           for a in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("stiefelsum.")):
            used.update(f"{node.module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            used.add(".".join([modules[node.id]] + chain))
    return used


def test_every_workload_entry_point_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = _names_used(tree)
    assert ENTRY_POINTS <= used
    for name in used:
        module, _, path = name.partition(".")[2].partition(".")
        assert _resolve(f"stiefelsum.{module}", path) is not None, name


def test_entry_points_keep_the_shapes_the_workloads_read():
    # TablesSmall forwards solve_sdp(inst, cfg) and reads the report's
    # blocks, value and dual; SdpHppca unpacks extract_candidate's 3-tuple
    inspect.signature(sdp.solve_sdp).bind(None, None)
    inspect.signature(harness.run_rop_table).bind(
        "hppca", {}, 1, seed=0, jobs=1)
    rep = sdp.solve_sdp(gen_separated_diagonal(4, 2, seed=1))
    assert len(sdp.extract_candidate(rep)) == 3
    assert len(rep.primal.x_blocks) == 2
    assert np.isfinite([rep.value, rep.dual.value]).all()
    assert rep.dual.y.shape == (4, 4) and rep.dual.nu.shape == (2,)

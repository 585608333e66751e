"""Tier-1 mirrors of the CI documentation gates.

CI runs ``python -m doctest docs/GUIDE.md`` and
``python tools/docstring_gate.py src/repro/search`` as separate workflow
steps; these tests run the same checks from the test suite so a failure is
caught locally before any push.
"""

import doctest
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_guide_doctests_pass():
    results = doctest.testfile(
        str(REPO_ROOT / "docs" / "GUIDE.md"), module_relative=False, verbose=False
    )
    assert results.attempted > 10, "GUIDE.md lost its executable examples"
    assert results.failed == 0


def _docstring_gate():
    spec = importlib.util.spec_from_file_location(
        "docstring_gate", REPO_ROOT / "tools" / "docstring_gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _assert_fully_documented(targets):
    missing = _docstring_gate().check(targets)
    formatted = "\n".join(
        f"{path}:{line}: {kind} {name}" for path, line, kind, name in missing
    )
    assert not missing, f"undocumented public definitions:\n{formatted}"


def test_search_subsystem_docstring_coverage():
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "search"])


def test_execution_backend_docstring_coverage():
    # Same gate CI runs: the batch result types, the sim-free numpy screen
    # and the kernel (home of the reference screen routine,
    # execute_multi_batch) are public API surface and must stay fully
    # documented.
    _assert_fully_documented(
        [
            REPO_ROOT / "src" / "repro" / "runtime" / "backends.py",
            REPO_ROOT / "src" / "repro" / "runtime" / "vector_backend.py",
            REPO_ROOT / "src" / "repro" / "runtime" / "kernel.py",
        ]
    )


def test_durable_queue_docstring_coverage():
    # Same gate CI runs: the durable campaign service (queue + chaos harness)
    # is public API surface and must stay fully documented.
    _assert_fully_documented(
        [
            REPO_ROOT / "src" / "repro" / "campaign" / "queue.py",
            REPO_ROOT / "src" / "repro" / "campaign" / "faults.py",
        ]
    )


def test_distsim_docstring_coverage():
    # Same gate CI runs: the message-passing discrete-event tier (engine,
    # latency models, workload families, timeline→schedule reduction) is
    # public API surface and must stay fully documented.
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "distsim"])


def test_backend_module_doctests_pass():
    # CI's "Backend module doctests" step, mirrored in tier-1: both modules'
    # examples must pass with and without numpy.
    import repro.runtime.backends as backends_module
    import repro.runtime.vector_backend as vector_module

    for module in (backends_module, vector_module):
        results = doctest.testmod(module, verbose=False)
        assert results.attempted >= 1, f"{module.__name__} lost its examples"
        assert results.failed == 0


def test_counterexample_atlas_names_regenerating_commands():
    atlas = (REPO_ROOT / "docs" / "COUNTEREXAMPLES.md").read_text(encoding="utf-8")
    # Every atlas entry must carry the exact command that regenerates it.
    assert atlas.count("repro search --property") >= 2
    assert "out of model" in atlas
    assert "in-model" in atlas

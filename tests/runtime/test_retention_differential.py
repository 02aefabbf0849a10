"""Plain and graph-retaining walks agree, under both step kernels.

Retaining the state graph must be an observational no-op.  Against the
interpreted retaining walk (``repro verify``'s default), the interpreted
plain, compiled plain and compiled retaining walks must reproduce every
field of :func:`fingerprint` (``max_depth_reached`` included: all four
walk depth-first in one order) and, when retaining, the graph's bytes,
on every verify-role instance at its verify budget and on every
non-hooked lint mutant, whose raising walks must raise alike.  The
compiled kernel runs plain two-slot walks under a threshold-2 invariant
in ``_run_trivial_two`` and retaining ones in ``_run_trivial``, so the
verify-role rows pin those two loops against each other.
"""

from functools import partial

import pytest

from repro.problems import instances_with_role
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import ALL_MUTANTS, HOOKED_MUTANTS, MutantAlgorithm
from tests.runtime.test_compiled import fingerprint
from tests.runtime.test_exploration_differential import null_invariant

VERIFY_ROWS = {
    inst.label: (spec, inst)
    for spec, inst in instances_with_role("verify", include_mutants=True)
}

MUTANTS = {
    cls.__name__: cls for cls, _pass in ALL_MUTANTS if cls not in HOOKED_MUTANTS
}

#: (kernel, retain_graph) of each walk compared with the reference.
VARIANTS = [
    pytest.param("interpreted", False, id="interpreted-plain"),
    pytest.param("compiled", False, id="compiled-plain"),
    pytest.param("compiled", True, id="compiled-retaining"),
]


def walk(name, kernel, retain_graph):
    """The walk of a verify row or mutant, or ``("raised", type name)``."""
    if name in VERIFY_ROWS:
        spec, inst = VERIFY_ROWS[name]
        build, invariant = partial(spec.system, inst), spec.invariant
        budgets = dict(max_states=inst.verify_max_states, max_depth=1_000_000)
    else:
        build = partial(
            System, MutantAlgorithm(MUTANTS[name]), pids(2), record_trace=False
        )
        invariant = null_invariant
        budgets = dict(max_states=2_000, max_depth=200)
    system = build()
    try:
        return explore(
            system,
            invariant,
            canonicalizer=TrivialCanonicalizer(system.scheduler),
            backend=CompiledBackend() if kernel == "compiled" else SerialBackend(),
            retain_graph=retain_graph,
            **budgets,
        )
    except Exception as error:  # noqa: BLE001 — compared below
        return ("raised", type(error).__name__)


@pytest.fixture(scope="module")
def references():
    """The interpreted retaining walk per subject, shared by the variants."""
    return {}


@pytest.mark.parametrize("name", [*VERIFY_ROWS, *MUTANTS])
@pytest.mark.parametrize("kernel, retain_graph", VARIANTS)
def test_matches_the_interpreted_retaining_walk(
    name, kernel, retain_graph, references
):
    if name not in references:
        references[name] = walk(name, "interpreted", True)
    reference = references[name]
    got = walk(name, kernel, retain_graph)
    if isinstance(reference, tuple):
        assert name in MUTANTS and got == reference
        return
    assert not isinstance(got, tuple), got
    assert got.kernel == kernel, "the compiled walk fell back"
    assert fingerprint(got) == fingerprint(reference)
    if retain_graph:
        assert got.graph.to_bytes() == reference.graph.to_bytes()
    else:
        assert got.graph is None

"""The package names the benchmark in perfbench/ resolves stay bound.

perfbench's own tests are not collected here, so these check, read-only,
that every (module, attribute path) its span tracer wraps resolves to a
function in the module or class dictionary it patches, and that the
fast-aLRP names its runner and tracer call still work."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rankloss.fixtures import fixture_scenario
from rankloss.losses import alrp_loss
from rankloss.ranking import StepKind

# By module path: the package namespace binds ``fast_alrp`` to the function.
fast_alrp = importlib.import_module("rankloss.fast_alrp")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for _, _, targets in module.TRACED for module_name, path in targets]


@pytest.mark.parametrize("module, path", _traced(), ids=lambda v: v)
def test_every_traced_name_resolves(module, path):
    """As the tracer does: the owner is reached by getattr, the attribute
    is read from the owner's own dictionary."""
    owner = importlib.import_module(f"rankloss.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("kind", (StepKind.exact(), StepKind.smoothed(0.5)), ids=("exact", "smooth"))
def test_the_fast_alrp_names_still_work(kind):
    assert fast_alrp.active_backend() == "numpy"
    assert fast_alrp.FastConfig() == fast_alrp.FastConfig(delta=1.0, prune=True, exact=False)
    scn = fixture_scenario("shuffled")
    fast, slow = alrp_loss(scn, kind, use_fast=True), alrp_loss(scn, kind)
    assert (fast.total, fast.n_kept) == (slow.total, slow.n_kept)
    np.testing.assert_array_equal(fast.score_grads, slow.score_grads)
    np.testing.assert_array_equal(fast.box_grads, slow.box_grads)
    config = fast_alrp.FastConfig(delta=kind.delta, exact=not kind.smooth)
    assert fast_alrp.pruned_size(scn, config) == fast.n_kept

"""The traced benchmark wraps pvdmimo from outside (perfbench/spans.py). Each
of its targets must stay an attribute in its owner's own __dict__, or a
traced run fails with KeyError; this guards refactors of the package."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_is_in_its_owner_dict():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for target in spans.TARGETS:
        owner, attr = spans._resolve(target)
        if not callable(vars(owner).get(attr)):
            missing.append(target)
    assert len(spans.TARGETS) > 0 and missing == []

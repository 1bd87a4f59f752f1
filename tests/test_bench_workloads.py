"""Every benchmark workload (perfbench/workloads.py) must stay a valid config:
a PR that drops a config key a workload still sets fails here, not in the
benchmark run. The workloads are loaded from outside the package, the way
test_spans_targets.py loads spans.py."""

import importlib.util
import pathlib

import pytest

from pvdmimo.harness import ExperimentConfig, validate_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_workload_config_parses(name):
    cfg = WORKLOADS.config(name, 1, str(ROOT))
    assert validate_dict(cfg) == []
    assert isinstance(ExperimentConfig.from_dict(cfg), ExperimentConfig)

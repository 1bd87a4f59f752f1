"""Every benchmark workload (perfbench/workloads.py) must stay a valid config:
a PR that drops a config key a workload still sets fails here, not in the
benchmark run. The workloads are loaded from outside the package, the way
test_spans_targets.py loads spans.py."""

import copy
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


def test_medium_probes_key_has_no_effect():
    # medium still sets pvd.probes, which nothing reads any more
    cfg = WORKLOADS.config("medium", 1, str(ROOT))
    assert cfg["pvd"]["probes"] == 8
    without = copy.deepcopy(cfg)
    del without["pvd"]["probes"]
    assert validate_dict(without) == []
    assert ExperimentConfig.from_dict(without).pvd == ExperimentConfig.from_dict(cfg).pvd

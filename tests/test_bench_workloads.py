"""Every benchmark workload (perfbench/workloads.py) must stay a valid config:
a PR that drops a config key a workload still sets fails here, not in the
benchmark run. The workloads are loaded from outside the package, the way
test_spans_targets.py loads spans.py."""

import copy
import importlib.util
import pathlib

import pytest

from pvdmimo.encoder import LinearEncoder
from pvdmimo.harness import ExperimentConfig, _build_link, validate_dict

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


@pytest.mark.parametrize("name", ["desk", "medium", "pilot"])
def test_pilot_workloads_run_the_closed_form_decode(name):
    # the benchmark times baselines.two_stage_decode only while these hold
    cfg = ExperimentConfig.from_dict(WORKLOADS.config(name, 1, str(ROOT)))
    assert cfg.raw["baselines"]["lmmse"]
    link = _build_link(cfg)
    assert isinstance(link.pilot_encoder, LinearEncoder)
    assert cfg.pilot_prior is not None


def test_multiuser_workload_runs_no_baseline():
    cfg = ExperimentConfig.from_dict(WORKLOADS.config("multiuser", 1, str(ROOT)))
    assert cfg.methods == ["pvd"]

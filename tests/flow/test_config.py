"""FlowConfig's option table: one coercion and range check behind the
library, the job spec and the command line."""

import pytest

import repro.cli as cli
from repro.cli import build_parser
from repro.flow import FLOW_OPTIONS, FlowConfig
from repro.tech import CellArchitecture

#: ``(field, value)`` pairs every front door must reject.
OUT_OF_RANGE = [
    ("utilization", 0),
    ("utilization", 1.5),
    ("window_um", 0),
    ("lx", -1),
    ("ly", -1),
    ("jobs", 0),
    ("scale", 0),
    ("scale", -0.5),
    ("time_limit", 0),
    ("shards", 0),
    ("halo_rows", -1),
    ("seed", -1),
    ("profile", "nope"),
    ("arch", "nope"),
    ("executor", "gpu"),
]


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_flow_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FlowConfig(**{field: value})


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_from_spec_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FlowConfig.from_spec({field: value})


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_flow_parser_rejects_out_of_range_values(field, value, capsys):
    option = "--" + field.replace("_", "-")
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["flow", option, str(value)])
    assert err.value.code == 2
    assert f"argument {option}: must be" in capsys.readouterr().err


def test_from_spec_of_nothing_is_the_default_config():
    assert FlowConfig.from_spec({}) == FlowConfig()


def test_flow_without_options_runs_the_default_config(monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def run_flow(config):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(cli, "run_flow", run_flow)
    with pytest.raises(Stop):
        cli.main(["flow"])
    assert seen == [FlowConfig()]


def test_values_are_coerced_to_the_field_types():
    config = FlowConfig.from_spec(
        {"arch": "openm1", "scale": 1, "jobs": "2", "shards": "auto"}
    )
    assert config.arch is CellArchitecture.OPEN_M1
    assert config.scale == 1.0 and isinstance(config.scale, float)
    assert config.jobs == 2
    assert config.shards == "auto"
    assert FlowConfig(arch="closedm1") == FlowConfig()


@pytest.mark.parametrize(
    "field, value",
    [("jobs", True), ("scale", False), ("timing_driven", 1)],
)
def test_a_bool_is_only_a_bool(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FlowConfig.from_spec({field: value})


def test_the_table_covers_what_a_user_sets():
    """Every spec key is a FlowConfig field; the three fields left out
    take Python objects or switch the optimizer off."""
    fields = set(FlowConfig.__dataclass_fields__)
    assert set(FLOW_OPTIONS) <= fields
    assert fields - set(FLOW_OPTIONS) == {"params", "router", "optimize"}

"""CLI tests."""

import json

import pytest

from repro.cli import build_parser, main


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in (
        "generate", "flow", "experiment", "serve", "submit", "jobs",
    ):
        assert cmd in out


def test_generate_writes_files(tmp_path, capsys):
    rc = main(
        [
            "generate",
            "--profile", "m0",
            "--scale", "0.01",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    files = {p.suffix for p in tmp_path.iterdir()}
    assert files == {".lef", ".def", ".v"}
    assert "instances" in capsys.readouterr().out


def test_flow_prints_table(tmp_path, capsys):
    rc = main(
        [
            "flow",
            "--profile", "aes",
            "--scale", "0.008",
            "--window-um", "1.0",
            "--time-limit", "2.0",
            "--json",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    row = json.loads(out[: out.index("artifacts")])
    assert row["design"] == "aes"
    assert (tmp_path / "post.def").exists()
    assert (tmp_path / "layout_opt.svg").exists()


def test_parser_rejects_unknown_arch():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["flow", "--arch", "nope"])


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_flow_rejects_nonpositive_jobs_at_parse_time(jobs, capsys):
    """Satellite: ``--jobs 0`` must die in argparse, not deep in the
    executor factory."""
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["flow", "--jobs", jobs])
    assert err.value.code == 2  # argparse usage error
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["flow", "--scale", "0"],
        ["flow", "--scale", "-0.5"],
        ["flow", "--time-limit", "0"],
        ["serve", "--workers", "0"],
        ["submit", "--jobs", "-1"],
    ],
)
def test_parser_rejects_nonpositive_numbers(args):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(args)
    assert err.value.code == 2


def test_flow_help_documents_auto_executor_resolution(capsys):
    with pytest.raises(SystemExit) as err:
        main(["flow", "--help"])
    assert err.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "'auto' resolves to 'serial'" in out
    assert "must be >= 1" in out


#: Every FlowConfig option ``flow`` and ``submit`` share.
_FLOW_CONFIG_OPTIONS = (
    "window_um", "lx", "ly", "time_limit", "jobs", "executor",
    "no_presolve", "no_dirty_tracking", "shards", "halo_rows",
)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        [
            "--window-um", "1.5", "--lx", "3", "--ly", "2",
            "--time-limit", "2.5", "--jobs", "2",
            "--executor", "thread", "--no-presolve",
            "--no-dirty-tracking", "--shards", "auto",
            "--halo-rows", "0",
        ],
    ],
)
def test_flow_and_submit_parse_flow_config_options_alike(argv):
    parser = build_parser()
    flow = vars(parser.parse_args(["flow", *argv]))
    submit = vars(parser.parse_args(["submit", *argv]))
    values = {name: flow[name] for name in _FLOW_CONFIG_OPTIONS}
    assert values == {name: submit[name] for name in _FLOW_CONFIG_OPTIONS}
    if argv:
        assert values["shards"] == "auto"
        assert values["no_dirty_tracking"] is True

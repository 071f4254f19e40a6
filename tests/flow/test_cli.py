"""CLI tests."""

import ctypes
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.runtime import TELEMETRY_SCHEMA


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
    captured = capsys.readouterr()
    row = json.loads(captured.out)
    assert row["design"] == "aes"
    assert f"artifacts -> {tmp_path}/" in captured.err
    assert (tmp_path / "post.def").exists()
    assert (tmp_path / "layout_opt.svg").exists()


def test_flow_json_stdout_holds_only_the_document(
    tmp_path, capfd, monkeypatch
):
    """Native code (the bundled HiGHS) writes straight to file
    descriptor 1, directly or through C stdio buffers; with ``--json``
    that text lands on stderr."""
    import repro.cli as cli

    real_run_flow = cli.run_flow

    puts = ctypes.CDLL(None).puts
    puts.argtypes = [ctypes.c_char_p]
    puts.restype = ctypes.c_int

    def run_flow(config):
        os.write(1, b"native write\n")
        puts(b"buffered native write")
        return real_run_flow(config)

    monkeypatch.setattr(cli, "run_flow", run_flow)
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
    captured = capfd.readouterr()
    assert json.loads(captured.out)["design"] == "aes"
    assert "native write" in captured.err
    assert "buffered native write" in captured.err
    assert "artifacts ->" in captured.err


def test_sharded_flow_writes_telemetry(tmp_path, capsys, monkeypatch):
    """A sharded flow's document is the view of its ``opt`` subtree:
    every shard and seam window, with the sharded run's totals."""
    import repro.cli as cli

    real_run_flow = cli.run_flow
    results = []

    def run_flow(config):
        results.append(real_run_flow(config))
        return results[-1]

    monkeypatch.setattr(cli, "run_flow", run_flow)
    target = tmp_path / "t.json"
    rc = main(
        [
            "flow",
            "--profile", "aes",
            "--scale", "0.008",
            "--window-um", "1.0",
            "--time-limit", "2.0",
            "--shards", "2",
            "--jobs", "2",
            "--telemetry", str(target),
            "--json",
        ]
    )
    assert rc == 0
    assert "sharded x2" in capsys.readouterr().err
    doc = json.loads(target.read_text())
    assert doc["schema"] == TELEMETRY_SCHEMA
    opt = results[0].opt
    windows = doc["windows"]
    assert windows["total"] > 0
    assert windows["total"] - windows["skipped_clean"] == (
        opt.windows_built
    )
    assert windows["skipped_clean"] == opt.windows_skipped_clean
    assert windows["applied"] == opt.windows_applied
    assert windows["reverted"] == opt.windows_reverted
    # Every shard pass and the seam pass.
    assert sum(p["windows"] for p in doc["passes"]) == opt.windows_built
    for key, total in (
        ("build", "build_seconds"),
        ("solve", "solve_seconds"),
        ("measured_parallel", "measured_parallel_seconds"),
        ("modeled_parallel", "modeled_parallel_seconds"),
    ):
        assert doc["seconds"][key] == getattr(opt, total)


#: Timing values of a telemetry document, masked before two runs'
#: (or a run's and its trace's) documents are compared.
_TIMED_PASS_KEYS = (
    "wall_seconds", "build_seconds", "presolve_seconds",
    "solve_seconds", "measured_parallel_seconds",
    "modeled_parallel_seconds",
)
_TIMED_WINDOW_KEYS = (
    "build_seconds", "queue_seconds", "presolve_seconds",
    "solve_seconds",
)


def untimed(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    del doc["seconds"], doc["speedup"]
    for entry in doc["passes"]:
        for key in _TIMED_PASS_KEYS:
            entry[key] = None
    for record in doc["windows_detail"]:
        for key in _TIMED_WINDOW_KEYS:
            record[key] = None
    doc["counters"]["repro_run_window_solve_seconds"]["sum"] = None
    return doc


@pytest.mark.parametrize(
    "executor", [[], ["--executor", "process", "--jobs", "2"]],
    ids=["serial", "process"],
)
def test_trace_summary_matches_the_runs_telemetry(
    tmp_path, capsys, executor
):
    trace = tmp_path / "trace.ndjson"
    telemetry = tmp_path / "telemetry.json"
    rc = main(
        [
            "flow",
            "--profile", "aes",
            "--scale", "0.008",
            "--window-um", "1.0",
            "--time-limit", "2.0",
            *executor,
            "--trace", str(trace),
            "--telemetry", str(telemetry),
            "--json",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["trace", "summary", str(trace)]) == 0
    summary = json.loads(capsys.readouterr().out)
    live = json.loads(telemetry.read_text())
    assert live["windows"]["total"] > 0
    assert live["trace"] is not None
    assert untimed(summary) == untimed(live)
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


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--utilization", "0"],
        ["flow", "--utilization", "0"],
        ["flow", "--utilization", "1.5"],
        ["flow", "--window-um", "0"],
        ["flow", "--window-um", "-1"],
        ["flow", "--lx", "-1"],
        ["flow", "--ly", "-2"],
    ],
)
def test_parser_rejects_out_of_range_flow_options(args):
    """Past the parser, utilization outside (0, 1] ends in a
    traceback, a window size <= 0 runs a flow that moves nothing, and
    a negative lx/ly runs with a negative perturbation range."""
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
    "shards", "halo_rows",
)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        [
            "--window-um", "1.5", "--lx", "3", "--ly", "2",
            "--time-limit", "2.5", "--jobs", "2",
            "--executor", "thread", "--shards", "auto",
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
        assert values["halo_rows"] == 0

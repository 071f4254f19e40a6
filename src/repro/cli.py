"""Command-line interface.

Subcommands:

* ``repro generate`` — synthesize a benchmark, place it, and write
  LEF / DEF / structural Verilog to a directory.
* ``repro flow`` — run the full flow (place → route → VM1Opt →
  re-route) and print the Table 2-style row; optionally dump
  before/after DEF and SVG views.
* ``repro experiment`` — run one paper experiment (fig5/fig6/fig7/
  table2/fig8) at a chosen scale preset and print the markdown table.
* ``repro serve`` — run the durable job service (HTTP API + job
  manager over an on-disk journal; see :mod:`repro.service`).
* ``repro submit`` — submit a flow job to a running service.
* ``repro jobs`` — list/inspect/cancel/watch service jobs.
* ``repro check`` — differential verification: fuzz seeded window
  cases against the independent oracle + brute-force optimum
  (:mod:`repro.check`), replay corpus reproducers, and run the
  executor/resume/memo/chaos equivalence axes.
* ``repro chaos`` — deterministic fault injection: run one fault
  plan faulted-vs-clean (:mod:`repro.chaos`), fuzz seeded random
  plans with failure shrinking, or list the hook-site inventory.

Run ``repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.eval import (
    EvalScale,
    expt_a1_window_sweep,
    expt_a2_alpha_sweep,
    expt_a3_sequences,
    expt_b_fig8_drv_sweep,
    expt_b_table2,
    render_markdown_table,
)
from repro.flow import FLOW_OPTIONS, FlowConfig, run_flow, table2_row
from repro.lefdef import write_def, write_lef
from repro.library import build_library
from repro.milp.highs_backend import stdout_to_stderr
from repro.netlist import generate_design
from repro.netlist.verilog import write_verilog
from repro.placement import place_design
from repro.tech import CellArchitecture, make_tech

_PRESETS = {
    "quick": EvalScale.quick,
    "default": EvalScale,
    "paper": EvalScale.paper,
}

#: ``repro check --axes`` names.  ``brute`` selects nothing: every
#: fuzz case is certified against brute force anyway.
CHECK_AXES = ("brute", "executor", "resume", "memo_onoff", "chaos")


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer (fails at parse time,
    not with a traceback deep inside a worker pool)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be > 0 (got {value})"
        )
    return value


def _add_flow_option(parser, name: str, **kwargs) -> None:
    """``--<name>`` for a :class:`FlowConfig` field: its type, range
    check and default come from :data:`repro.flow.FLOW_OPTIONS` and
    the dataclass, so a bad value exits 2 here, not inside the flow."""
    option = FLOW_OPTIONS[name]

    def parse(text: str):
        try:
            return option.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    if option.choices:
        kwargs.setdefault("metavar", "{" + ",".join(option.choices) + "}")
    parser.add_argument(
        "--" + name.replace("_", "-"),
        type=parse,
        default=getattr(FlowConfig, name),
        **kwargs,
    )


def _flow_fields(args: argparse.Namespace) -> dict:
    """The :class:`FlowConfig` fields the command line set."""
    return {
        name: getattr(args, name)
        for name in FLOW_OPTIONS
        if hasattr(args, name)
    }


def _add_common_design_args(parser: argparse.ArgumentParser) -> None:
    _add_flow_option(
        parser, "profile", help="benchmark profile (Table 2 designs)"
    )
    _add_flow_option(parser, "arch", help="cell architecture")
    _add_flow_option(
        parser, "scale", help="instance-count scale (1.0 = paper size)"
    )
    _add_flow_option(
        parser, "utilization", help="placement utilization target"
    )
    _add_flow_option(parser, "seed")


def _add_flow_config_args(parser: argparse.ArgumentParser) -> None:
    """The FlowConfig options ``flow`` and ``submit`` share."""
    group = parser.add_argument_group("optimizer options")
    _add_flow_option(group, "window_um")
    _add_flow_option(group, "lx")
    _add_flow_option(group, "ly")
    _add_flow_option(
        group, "time_limit", help="per-window MILP time limit in seconds"
    )
    _add_flow_option(
        group, "jobs",
        help="window-solve workers; must be >= 1 (1 = serial)",
    )
    _add_flow_option(
        group, "executor",
        help="window-solve executor backend; 'auto' resolves to "
        "'serial' when --jobs is 1 and to 'thread' (a thread "
        "pool with --jobs workers) otherwise",
    )
    _add_flow_option(
        group, "shards", metavar="N|auto",
        help="region-shard the die into N row bands for full-chip "
        "scale-out ('auto' sizes from the design and --jobs; 1 = "
        "classic unsharded run)",
    )
    _add_flow_option(
        group, "halo_rows",
        help="frozen ghost rows around each shard's core band",
    )


def _json_stdout(enabled: bool):
    """Keep stdout for the ``--json`` document alone: while the command
    works, fd 1 points at stderr (see
    :func:`~repro.milp.highs_backend.stdout_to_stderr`)."""
    return stdout_to_stderr() if enabled else contextlib.nullcontext()


def _cmd_generate(args: argparse.Namespace) -> int:
    tech = make_tech(args.arch)
    library = build_library(tech)
    design = generate_design(
        args.profile, tech, library, scale=args.scale,
        utilization=args.utilization, seed=args.seed,
    )
    place_design(design, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{design.name}.lef").write_text(write_lef(library))
    (out / f"{design.name}.def").write_text(write_def(design))
    (out / f"{design.name}.v").write_text(write_verilog(design))
    print(
        f"{design.name}: {len(design.instances)} instances, "
        f"{len(design.nets)} nets -> {out}/"
    )
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    if args.telemetry:
        target = Path(args.telemetry)
        if target.is_dir():
            print(
                f"--telemetry: path is a directory: {args.telemetry}",
                file=sys.stderr,
            )
            return 2
        if not target.parent.is_dir():
            print(
                f"--telemetry: directory does not exist: "
                f"{target.parent}",
                file=sys.stderr,
            )
            return 2
    config = FlowConfig(**_flow_fields(args))
    with _json_stdout(args.json):
        row = _run_flow_command(config, args)
    if args.json:
        print(json.dumps(row, indent=1, default=str))
    else:
        print(render_markdown_table([row]))
    return 0


def _run_flow_command(config: FlowConfig, args: argparse.Namespace) -> dict:
    """Run the flow and write its side outputs; return the table row."""
    if args.trace:
        from repro.obs.trace import disable, enable

        enable(
            args.trace,
            profile_spans=tuple(args.trace_profile or ()),
        )
    try:
        result = run_flow(config)
    finally:
        if args.trace:
            disable()
            print(f"trace -> {args.trace}", file=sys.stderr)
    if result.shard is not None:
        summary = result.shard.summary()
        print(
            f"sharded x{summary['num_shards']} "
            f"(halo {summary['halo_rows']} rows, "
            f"{summary['boundary_nets']} boundary nets, "
            f"seam applied {summary['seam_windows_applied']} windows, "
            f"legal={summary['legal']})",
            file=sys.stderr,
        )
    if args.telemetry and result.telemetry is not None:
        path = result.telemetry.save(args.telemetry)
        print(f"telemetry -> {path}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "post.def").write_text(write_def(result.design))
        from repro.viz import render_design_svg

        (out / "layout_opt.svg").write_text(
            render_design_svg(result.design)
        )
        print(f"artifacts -> {out}/", file=sys.stderr)
    return table2_row(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
    )


def _spec_from_args(args: argparse.Namespace) -> dict:
    """Flow-job spec from submit's CLI options."""
    spec = _flow_fields(args)
    spec["arch"] = spec["arch"].value
    if args.trace:
        spec["trace"] = True
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        job_id = client.submit(_spec_from_args(args))
    except ServiceError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 1
    print(job_id)
    if not args.wait:
        return 0
    record = client.wait(job_id, timeout=args.timeout)
    if record["state"] != "done":
        print(
            f"job {job_id} {record['state']}: "
            f"{record.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    row = client.result(job_id)["table2"]
    if args.json:
        print(json.dumps(row, indent=1, default=str))
    else:
        print(render_markdown_table([row]))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job is None:
            for record in client.jobs():
                print(
                    f"{record['job_id']}  {record['state']:<10} "
                    f"attempts={record['attempts']} "
                    f"kind={record['kind']}"
                )
            return 0
        if args.cancel:
            record = client.cancel(args.job)
            print(f"{record['job_id']}  {record['state']}")
            return 0
        if args.watch:
            for event in client.events(args.job, follow=True):
                print(json.dumps(event))
            return 0
        print(json.dumps(client.status(args.job), indent=1))
        return 0
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import read_trace, write_report

    if args.action == "report":
        out = write_report(
            args.path,
            out_path=args.out or None,
            title=args.title or None,
        )
        print(f"report -> {out}")
        return 0
    # summary: derive a telemetry document from the recorded spans.
    from repro.runtime.telemetry import RunTelemetry

    spans = read_trace(args.path)
    doc = RunTelemetry.from_spans(spans).summary()
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = _PRESETS[args.preset]()
    runners = {
        "fig5": lambda: expt_a1_window_sweep(scale),
        "fig6": lambda: expt_a2_alpha_sweep(scale),
        "fig7": lambda: expt_a3_sequences(scale),
        "table2": lambda: expt_b_table2(scale),
        "fig8": lambda: expt_b_fig8_drv_sweep(scale),
    }
    rows = runners[args.which]()
    print(render_markdown_table(rows))
    if args.out:
        Path(args.out).write_text(
            json.dumps(rows, indent=1, default=str)
        )
        print(f"rows -> {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Imported here: the verification stack is heavy and only this
    # subcommand needs it.
    from repro.check import fuzz, replay_reproducer
    from repro.check.differential import (
        check_chaos_axis,
        check_executor_axis,
        check_memo_onoff_axis,
        check_resume_axis,
    )

    if args.replay:
        files = []
        with _json_stdout(args.json):
            for path in args.replay:
                report = replay_reproducer(
                    path, max_assignments=args.max_assignments
                )
                files.append({
                    "path": path,
                    "status": report.status,
                    "errors": report.errors,
                })
                if not args.json:
                    print(f"{path}: {report.describe()}")
        failed = sum(doc["status"] == "failed" for doc in files)
        if args.json:
            print(json.dumps({"files": files, "failed": failed}, indent=1))
        return 1 if failed else 0

    axes = set(args.axes.split(","))
    unknown = axes - set(CHECK_AXES)
    if unknown:
        print(f"unknown axes: {sorted(unknown)}", file=sys.stderr)
        return 2

    arch = CellArchitecture(args.arch) if args.arch else None

    def progress(seed: int, report) -> None:
        if report.status == "failed":
            print(f"FAIL {report.describe()}", file=sys.stderr)

    with _json_stdout(args.json):
        summary = fuzz(
            args.fuzz,
            start_seed=args.seed,
            arch=arch,
            kind=args.kind,
            corpus_dir=args.corpus,
            max_assignments=args.max_assignments,
            progress=progress,
        )
        axis_errors: dict[str, list[str]] = {}
        if "executor" in axes:
            axis_errors["executor"] = check_executor_axis()
        if "resume" in axes:
            axis_errors["resume"] = check_resume_axis()
        if "memo_onoff" in axes:
            axis_errors["memo_onoff"] = check_memo_onoff_axis()
        if "chaos" in axes:
            axis_errors["chaos"] = check_chaos_axis()

    doc = summary.to_dict()
    doc["axes"] = {name: errs for name, errs in axis_errors.items()}
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print(
            f"fuzz: {summary.certified} certified, "
            f"{summary.skipped} skipped, {summary.failed} failed "
            f"of {summary.total} cases "
            f"({summary.assignments_enumerated} assignments "
            f"enumerated)"
        )
        for name, errs in axis_errors.items():
            state = "ok" if not errs else f"FAILED: {errs}"
            print(f"axis {name}: {state}")
        for path in summary.reproducers:
            print(f"reproducer -> {path}")
    ok = summary.ok and not any(axis_errors.values())
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.plan import SITES, ChaosPlanError, FaultPlan

    if args.chaos_cmd == "sites":
        for site in sorted(SITES):
            print(f"{site}: {', '.join(SITES[site])}")
        return 0

    if args.chaos_cmd == "run":
        try:
            plan = FaultPlan.load(args.plan)
        except FileNotFoundError:
            print(
                f"chaos plan not found: {args.plan}", file=sys.stderr
            )
            return 2
        except (ChaosPlanError, ValueError) as exc:
            print(f"invalid chaos plan: {exc}", file=sys.stderr)
            return 2
        if args.seed is not None:
            plan = plan.with_seed(args.seed)
        from repro.chaos.runner import run_chaos_case

        with _json_stdout(args.json):
            result = run_chaos_case(
                plan,
                profile=args.profile,
                scale=args.scale,
                seed=args.case_seed,
                time_limit=args.time_limit,
            )
        doc = result.summary()
        if args.json:
            print(json.dumps(doc, indent=1))
        else:
            fires = ", ".join(
                f"{site}={count}"
                for site, count in sorted(doc["fires"].items())
            ) or "none"
            print(
                f"converged={doc['converged']} fires=[{fires}] "
                f"resumes={doc['resume_attempts']} "
                f"error_spans={doc['error_spans']}"
            )
            for error in doc["errors"]:
                print(f"FAIL {error}", file=sys.stderr)
        return 0 if result.converged else 1

    # fuzz
    from repro.chaos.runner import run_fuzz

    with _json_stdout(args.json):
        summary = run_fuzz(
            args.plans,
            seed=args.seed or 0,
            out_dir=args.artifacts or None,
            profile=args.profile,
            scale=args.scale,
            case_seed=args.case_seed,
            time_limit=args.time_limit,
        )
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(
            f"chaos fuzz: {summary['ran']} plans ran, "
            f"{summary['failed']} failed"
        )
        for errors in summary["errors"]:
            print(f"FAIL {errors}", file=sys.stderr)
        for path in summary["artifacts"]:
            print(f"shrunken plan -> {path}")
    return 0 if summary["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Vertical M1 routing-aware detailed placement "
            "(DAC 2017 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="generate + place a benchmark; write LEF/DEF/V"
    )
    _add_common_design_args(gen)
    gen.add_argument("--out", default="out", help="output directory")
    gen.set_defaults(func=_cmd_generate)

    flow = sub.add_parser("flow", help="run the full optimization flow")
    _add_common_design_args(flow)
    _add_flow_config_args(flow)
    flow.add_argument(
        "--telemetry", default="",
        help="write runtime telemetry JSON to this path",
    )
    flow.add_argument(
        "--trace", default="", metavar="PATH",
        help="write a hierarchical span trace (repro.obs.trace/v1 "
        "NDJSON) to this path; render it with 'repro trace report'",
    )
    flow.add_argument(
        "--trace-profile", action="append", metavar="SPAN",
        help="attach the sampling profiler to spans with this name "
        "(repeatable; e.g. 'distopt'); requires --trace.  Shard "
        "workers profile the same names (e.g. 'shard' and their "
        "'distopt' passes); window workers profile nothing, so "
        "window/build/solve spans are never profiled",
    )
    flow.add_argument("--json", action="store_true")
    flow.add_argument("--out", default="", help="artifact directory")
    flow.set_defaults(func=_cmd_flow)

    trace = sub.add_parser(
        "trace",
        help="inspect a recorded span trace (repro.obs.trace/v1)",
    )
    trace.add_argument(
        "action", choices=("report", "summary"),
        help="'report' renders a self-contained HTML timeline; "
        "'summary' prints a telemetry document derived from the spans",
    )
    trace.add_argument("path", help="trace NDJSON file")
    trace.add_argument(
        "--out", default="",
        help="HTML output path (default: trace path with .html)",
    )
    trace.add_argument("--title", default="", help="report title")
    trace.set_defaults(func=_cmd_trace)

    expt = sub.add_parser(
        "experiment", help="run one paper experiment"
    )
    expt.add_argument(
        "which", choices=("fig5", "fig6", "fig7", "table2", "fig8")
    )
    expt.add_argument(
        "--preset", default="quick", choices=sorted(_PRESETS)
    )
    expt.add_argument("--out", default="", help="JSON rows output path")
    expt.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve",
        help="run the durable job service (HTTP API + job manager)",
        description=(
            "Serve flow jobs over HTTP with an on-disk journal. "
            "Jobs are checkpointed every DistOpt pass; a killed "
            "service resumes interrupted jobs on restart with a "
            "byte-identical final placement. SIGTERM/SIGINT drain "
            "gracefully (in-flight window solves finish, workers are "
            "joined) and exit 128+signum."
        ),
    )
    serve.add_argument(
        "--root", default=".repro-service",
        help="journal directory (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=1,
        help="concurrent jobs, each run in its own forked process; "
        "window-solve parallelism is per-job (the spec's "
        "executor/jobs)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a flow job to a running service"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL",
    )
    _add_common_design_args(submit)
    _add_flow_config_args(submit)
    submit.add_argument(
        "--trace", action="store_true",
        help="ask the service to record a span trace for this job "
        "(written to the job directory as trace.ndjson)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its Table-2 row",
    )
    submit.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="give up waiting after this many seconds",
    )
    submit.add_argument("--json", action="store_true")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list/inspect/cancel/watch service jobs"
    )
    jobs.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="service base URL",
    )
    jobs.add_argument(
        "--job", default=None, help="job id (omit to list all jobs)"
    )
    jobs.add_argument(
        "--cancel", action="store_true",
        help="request cooperative cancellation of --job",
    )
    jobs.add_argument(
        "--watch", action="store_true",
        help="stream --job progress events (NDJSON) until terminal",
    )
    jobs.set_defaults(func=_cmd_jobs)

    check = sub.add_parser(
        "check",
        help="differential verification: fuzz windows vs the oracle "
        "and brute-force optimum",
    )
    check.add_argument(
        "--fuzz", type=_positive_int, default=50, metavar="N",
        help="number of seeded cases to generate and certify",
    )
    check.add_argument(
        "--seed", type=int, default=0, help="first case seed"
    )
    check.add_argument(
        "--arch", choices=FLOW_OPTIONS["arch"].choices,
        help="pin the architecture (default: drawn per seed)",
    )
    check.add_argument(
        "--kind",
        help="pin the adversarial case kind (default: drawn per seed)",
    )
    check.add_argument(
        "--corpus", metavar="DIR",
        help="write shrunk failure reproducers into DIR",
    )
    check.add_argument(
        "--replay", nargs="+", metavar="JSON",
        help="replay reproducer files instead of fuzzing",
    )
    check.add_argument(
        "--axes", default="brute",
        help=f"comma list of axes to run, from {','.join(CHECK_AXES)} "
        "(default: brute); every case is certified against "
        "brute force whether or not 'brute' is listed",
    )
    check.add_argument(
        "--max-assignments", type=_positive_int, default=50_000,
        help="brute-force enumeration cap per window",
    )
    check.add_argument(
        "--json", action="store_true", help="print a JSON summary"
    )
    check.set_defaults(func=_cmd_check)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection: run a plan faulted-vs-"
        "clean, fuzz seeded plans, or list hook sites",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_cmd", required=True)

    def _add_chaos_case_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile", default="m0",
            choices=FLOW_OPTIONS["profile"].choices,
            help="workload benchmark profile",
        )
        p.add_argument(
            "--scale", type=_positive_float, default=0.01,
            help="workload instance-count scale",
        )
        p.add_argument(
            "--case-seed", type=int, default=2,
            help="workload design/placement seed",
        )
        p.add_argument(
            "--time-limit", type=_positive_float, default=10.0,
            help="per-window MILP time limit in seconds",
        )
        p.add_argument("--json", action="store_true")

    chaos_run = chaos_sub.add_parser(
        "run",
        help="run one fault plan faulted-vs-clean and assert the "
        "invariant ladder",
    )
    chaos_run.add_argument(
        "--plan", required=True, metavar="JSON",
        help="fault plan file (schema repro.chaos.plan/v1)",
    )
    chaos_run.add_argument(
        "--seed", type=int, default=None,
        help="override the plan's trigger seed",
    )
    _add_chaos_case_args(chaos_run)
    chaos_run.set_defaults(func=_cmd_chaos)

    chaos_fuzz = chaos_sub.add_parser(
        "fuzz",
        help="run seeded random plans; shrink and save failures",
    )
    chaos_fuzz.add_argument(
        "--plans", type=_positive_int, default=25, metavar="N",
        help="number of seeded random plans to run",
    )
    chaos_fuzz.add_argument(
        "--seed", type=int, default=0, help="fuzz seed"
    )
    chaos_fuzz.add_argument(
        "--artifacts", default="", metavar="DIR",
        help="write shrunken failing plans into DIR",
    )
    _add_chaos_case_args(chaos_fuzz)
    chaos_fuzz.set_defaults(func=_cmd_chaos)

    chaos_sites = chaos_sub.add_parser(
        "sites", help="list fault-injection sites and their actions"
    )
    chaos_sites.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

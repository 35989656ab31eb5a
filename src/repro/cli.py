"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``campaign``  — run (or load) a fault-injection campaign; print Table I;
  ``--resume`` runs through the durable ledger so a killed run restarts
  where it stopped, bit-identical to an uninterrupted run.
* ``serve``     — campaign-as-a-service: shard leasing for remote
  workers plus low-latency DSR -> (type, unit, Top-K SBIST) prediction
  lookups over an asyncio HTTP API (503 + Retry-After while training).
* ``work``      — lease-execute-commit worker loop against a server.
* ``evaluate``  — cross-validated evaluation; print Figure 11/14 and
  Table III (``--fine`` for the 13-unit organisation, ``--top-k`` to
  truncate predictions, ``--off-chip`` for DRAM table placement).
* ``figures``   — ASCII charts of Figures 11-16.
* ``overhead``  — the Table IV area/power model.
* ``run``       — execute one workload kernel and print its outputs.
* ``fuzz``      — differential co-simulation fuzz of the pipeline
  against the ISA reference model (mismatches shrink to ``.s`` repros);
  ``--inject`` switches to fuzz-under-fault-injection (per-fault
  detection latency / masked / escape classification), ``--adapt``
  turns on coverage-directed template reweighting.
* ``mutate``    — mutation-test the verification stack: plant ALU /
  branch / checker bugs, measure programs-to-kill, emit
  ``BENCH_mutation.json``.
* ``disasm``    — disassemble a workload kernel.
* ``kernels``   — list the available workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import evaluate_campaign, topk_sweep
from .analysis.figures import figure11_chart, topk_chart
from .analysis.reports import (
    render_fig11,
    render_table1,
    render_table3,
    render_table4,
)
from .core.table import check_top_k
from .faults import DEFAULT_BATCH, CampaignConfig, ExecPlan, cached_campaign
from .workloads import KERNELS, get_workload, run_kernel

_SCALES = {
    "quick": CampaignConfig.quick,
    "default": CampaignConfig.default,
    "full": CampaignConfig.full,
}


def _add_campaign_args(parser: argparse.ArgumentParser,
                       resumable: bool = False) -> None:
    parser.add_argument("--scale", choices=sorted(_SCALES), default="default",
                        help="campaign size preset")
    parser.add_argument("--cache", default=".campaign_cache",
                        help="campaign cache directory")
    if resumable:
        parser.add_argument("--resume", action="store_true",
                            help="run through the durable campaign ledger: "
                                 "a killed run restarted with the same "
                                 "arguments continues from its committed "
                                 "shards, with a digest bit-identical to an "
                                 "uninterrupted run")
        parser.add_argument("--ledger", default=".campaign_ledger",
                            metavar="DIR",
                            help="ledger root directory (with --resume)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the injection campaign "
                             "(0 = every usable CPU); results are identical "
                             "for any value")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable liveness pruning (zero-sim masking, "
                             "deferred starts, dynamic equivalence); records "
                             "are bit-identical either way — this is an "
                             "escape hatch / benchmarking baseline")
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="the most faults one compiled-kernel call of "
                             "the batch injection engine takes (default: "
                             f"{DEFAULT_BATCH}); 0 runs the scalar engine, "
                             "which also runs when the kernel cannot be "
                             "built; records are bit-identical for any "
                             "value")


def _cli_config(args: argparse.Namespace) -> CampaignConfig:
    config = _SCALES[args.scale]()
    if getattr(args, "no_prune", False):
        config = dataclasses.replace(config, prune=False)
    return config


#: ExecPlan field -> the option that sets it, on the commands that have it.
_PLAN_OPTIONS = {"workers": "workers", "batch": "batch",
                 "chunk_flops": "chunk_flops"}


def _exec_plan(args: argparse.Namespace) -> ExecPlan:
    """The command's execution options as one plan (``ValueError`` names
    an out-of-range field)."""
    return ExecPlan(**{field: getattr(args, option)
                       for field, option in _PLAN_OPTIONS.items()
                       if getattr(args, option, None) is not None})


def _load_campaign(args: argparse.Namespace):
    config = _cli_config(args)
    if getattr(args, "resume", False):
        from .faults.service import run_resumable_campaign

        return run_resumable_campaign(config, ledger_dir=args.ledger,
                                      progress=True, plan=args.plan)
    return cached_campaign(config, cache_dir=args.cache, progress=True,
                           plan=args.plan)


def cmd_campaign(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    if campaign.meta.get("resumed_shards"):
        print(f"resumed: {campaign.meta['resumed_shards']}/"
              f"{campaign.meta['n_shards']} shards were already committed")
    print(render_table1(campaign))
    pruning = campaign.meta.get("pruning")
    if pruning and not campaign.config.prune:
        print(f"\npruning disabled: {pruning.get('sim_cycles', 0)} cycles "
              f"simulated")
    elif pruning:
        pruned = pruning.get("soft_pruned", 0) + pruning.get("hard_pruned", 0)
        deferred = (pruning.get("soft_deferred", 0)
                    + pruning.get("hard_deferred", 0))
        print(f"\npruning: {pruned} masked without simulation, "
              f"{deferred} deferred starts, "
              f"{pruning.get('equiv_classes', 0)} equivalence classes "
              f"({pruning.get('equiv_hits', 0)} collapsed), "
              f"{pruning.get('cycles_saved', 0)} cycles saved vs "
              f"{pruning.get('sim_cycles', 0)} simulated")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    ev = evaluate_campaign(campaign, fine=args.fine, top_k=args.top_k,
                           off_chip=args.off_chip)
    print(render_fig11(ev, fine=args.fine))
    print()
    print(render_table3(ev))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args)
    ev = evaluate_campaign(campaign, fine=args.fine)
    print(figure11_chart(ev, fine=args.fine))
    print()
    n_units = 13 if args.fine else 7
    sweep = topk_sweep(campaign, fine=args.fine,
                       ks=list(range(1, n_units + 1)))
    print(topk_chart(sweep, fine=args.fine))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    print(render_table4(n_entries=args.entries, ptar_bits=args.ptar_bits))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.kernel)
    result = run_kernel(workload, seed=args.seed)
    print(f"{workload.name}: {workload.description}")
    print(f"cycles: {result.cycles}, halted: {result.halted}, "
          f"exception: {result.exception}")
    print(f"outputs ({len(result.outputs)}): {result.outputs}")
    reference = workload.reference(workload.stimulus(args.seed))
    print(f"matches reference model: {result.outputs == reference}")
    return 0 if result.outputs == reference else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.inject:
        return _cmd_fuzz_inject(args)
    from .verify import run_fuzz

    kwargs = {}
    if args.artifacts is not None:
        # Explicit directory beats the REPRO_FUZZ_ARTIFACTS env default.
        kwargs["artifacts_dir"] = args.artifacts
    report = run_fuzz(
        programs=args.programs,
        seed=args.seed,
        max_cycles=args.max_cycles,
        do_shrink=not args.no_shrink,
        adapt=args.adapt,
        progress=True,
        **kwargs,
    )
    print(report.coverage.report())
    print(f"wall time: {report.wall_seconds:.1f}s"
          + (f"  (hung both: {report.hung_both})" if report.hung_both else "")
          + (f"  (unsupported: {report.unsupported})"
             if report.unsupported else ""))
    if report.failures:
        print(f"\n{len(report.failures)} MISMATCH(ES):")
        for failure in report.failures:
            print(f"  seed {failure.seed!r} "
                  f"({failure.instructions} instructions"
                  + (f", artifact {failure.artifact}" if failure.artifact
                     else "") + ")")
            for mismatch in failure.mismatches:
                print(f"    {mismatch}")
        return 1
    print(f"OK: {report.programs} programs, zero pipeline-vs-reference "
          f"mismatches")
    return 0


def _cmd_fuzz_inject(args: argparse.Namespace) -> int:
    from .verify.faultfuzz import run_faultfuzz

    report = run_faultfuzz(
        programs=args.programs,
        seed=args.seed,
        faults_per_program=args.faults,
        max_cycles=args.max_cycles,
        workers=args.workers,
        cores=args.cores,
        lockstep_mode=args.lockstep_mode,
        duty=args.duty,
        progress=True,
    )
    print(report.report())
    print(f"wall time: {report.wall_seconds:.1f}s  (workers: "
          f"{report.meta['workers']})")
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    from .verify.mutation import default_mutants, run_mutation, write_report

    mutants = None
    if args.kinds:
        kinds = tuple(args.kinds.split(","))
        mutants = tuple(m for m in default_mutants() if m.kind in kinds)
        if not mutants:
            print(f"no mutants of kind(s) {args.kinds!r}")
            return 1
    if args.sample:
        mutants = (mutants if mutants is not None else default_mutants())
        mutants = mutants[:args.sample]
    report = run_mutation(
        seed=args.seed,
        max_programs=args.programs,
        checker_programs=args.checker_programs,
        mutants=mutants,
        progress=True,
    )
    print(report.report())
    if args.out:
        path = write_report(report, args.out)
        print(f"wrote {path}")
    failed = []
    rate = report.kill_rate(("alu", "branch"))
    if rate < args.min_kill_rate:
        failed.append(f"alu/branch kill rate {100 * rate:.1f}% below "
                      f"{100 * args.min_kill_rate:.1f}%")
    chk_rate = report.kill_rate(("checker",))
    if chk_rate < args.min_checker_kill_rate:
        failed.append(f"checker kill rate {100 * chk_rate:.1f}% below "
                      f"{100 * args.min_checker_kill_rate:.1f}%")
    if report.undocumented_survivors:
        failed.append("undocumented survivors: " + ", ".join(
            r["name"] for r in report.undocumented_survivors))
    if failed:
        print("MUTATION GATE FAILED: " + "; ".join(failed))
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .faults.service import CampaignLedger, CampaignService
    from .faults.service.http import serve_forever

    config = _cli_config(args)
    ledger = CampaignLedger(args.ledger, config,
                            chunk_flops=args.plan.chunk_flops)
    service = CampaignService(ledger, fine=args.fine, top_k=args.top_k,
                              lease_ttl=args.lease_ttl)
    serve_forever(service, args.host, args.port)
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    from .faults.service import run_worker

    done = run_worker(args.url, worker_id=args.worker, plan=args.plan,
                      ttl=args.ttl, max_shards=args.max_shards or None,
                      progress=True)
    print(f"worker {args.worker}: committed {done} shard(s)")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from .cpu.assembler import assemble
    from .cpu.disassembler import disassemble

    workload = get_workload(args.kernel)
    program = assemble(workload.source)
    print(disassemble(program.words))
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    for name, workload in KERNELS.items():
        print(f"  {name:8s} {workload.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error correlation prediction for lockstep processors "
                    "(MICRO 2018 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("campaign", help="run/load a fault-injection campaign")
    _add_campaign_args(p, resumable=True)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("evaluate", help="cross-validated LERT evaluation")
    _add_campaign_args(p)
    p.add_argument("--fine", action="store_true", help="13-unit organisation")
    p.add_argument("--top-k", type=int, default=None,
                   help="truncate predictions to the top K units")
    p.add_argument("--off-chip", action="store_true",
                   help="place the prediction table off-chip (100-cycle access)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("figures", help="ASCII charts of Figures 11-16")
    _add_campaign_args(p)
    p.add_argument("--fine", action="store_true")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("overhead", help="Table IV area/power model")
    p.add_argument("--entries", type=int, default=1200)
    p.add_argument("--ptar-bits", type=int, default=11)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("run", help="run one workload kernel")
    p.add_argument("kernel", choices=sorted(KERNELS))
    p.add_argument("--seed", type=int, default=20180615)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "fuzz", help="differential co-simulation fuzz vs the ISA model")
    p.add_argument("--programs", type=int, default=200, metavar="N",
                   help="number of random programs to co-simulate")
    p.add_argument("--seed", type=int, default=0,
                   help="session seed (program i derives from 'seed:i')")
    p.add_argument("--max-cycles", type=int, default=30_000, metavar="C",
                   help="pipeline cycle budget per program")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of mismatching programs")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="directory for shrunken .s failure artifacts "
                        "(default: $REPRO_FUZZ_ARTIFACTS, else "
                        "fuzz_artifacts/)")
    p.add_argument("--adapt", action="store_true",
                   help="coverage-directed generation: reweight templates "
                        "toward under-hit event bins between batches")
    p.add_argument("--inject", action="store_true",
                   help="fuzz under fault injection: perturb one core of a "
                        "redundant group per program and classify every "
                        "fault as detected / masked / escape / hung")
    p.add_argument("--faults", type=int, default=3, metavar="K",
                   help="faults injected per program (with --inject)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for --inject (0 = every usable "
                        "CPU); digest is identical for any value")
    p.add_argument("--cores", type=int, default=2, choices=(2, 3),
                   help="redundant group size for --inject: 2 = DMR pair, "
                        "3 = voted TMR triple through the VotingChecker "
                        "(adds erring-CPU attribution + vote-vs-golden "
                        "classification)")
    p.add_argument("--lockstep-mode", choices=("locked", "dynamic"),
                   default="locked", dest="lockstep_mode",
                   help="comparison regime for --inject: 'locked' compares "
                        "every cycle; 'dynamic' gates comparison on a "
                        "seeded split/locked window schedule and reports "
                        "masked-window detection delays")
    p.add_argument("--duty", type=float, default=1.0, metavar="F",
                   help="target comparison duty cycle in (0, 1] for "
                        "--lockstep-mode dynamic (1.0 = always locked)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "mutate", help="mutation-test the fuzzer and the lockstep checker")
    p.add_argument("--seed", type=int, default=0,
                   help="fuzz session seed used against every mutant")
    p.add_argument("--programs", type=int, default=200, metavar="N",
                   help="cosim program budget per ALU/branch mutant")
    p.add_argument("--checker-programs", type=int, default=200, metavar="N",
                   help="fault-fuzz program budget per checker mutant")
    p.add_argument("--sample", type=int, default=0, metavar="K",
                   help="only run the first K mutants of the pool (CI smoke)")
    p.add_argument("--kinds", default="", metavar="K1,K2",
                   help="only run mutants of these kinds "
                        "(comma-separated from alu,branch,checker)")
    p.add_argument("--min-kill-rate", type=float, default=0.9,
                   help="fail unless this fraction of ALU/branch mutants die")
    p.add_argument("--min-checker-kill-rate", type=float, default=1.0,
                   dest="min_checker_kill_rate",
                   help="fail unless this fraction of checker mutants die "
                        "under the TMR fault-fuzz engine (default 1.0: the "
                        "voter path leaves no room for documented escapes)")
    p.add_argument("--out", default="BENCH_mutation.json", metavar="FILE",
                   help="detection-strength report path ('' to skip)")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser(
        "serve", help="serve a campaign ledger + prediction table over HTTP")
    p.add_argument("--scale", choices=sorted(_SCALES), default="default",
                   help="campaign size preset the ledger is keyed by")
    p.add_argument("--ledger", default=".campaign_ledger", metavar="DIR",
                   help="ledger root directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8322,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--chunk-flops", type=int, default=None, metavar="N",
                   help="flops per shard when creating a fresh ledger "
                        "(an existing ledger's plan always wins)")
    p.add_argument("--lease-ttl", type=float, default=60.0, metavar="S",
                   help="seconds before an uncommitted shard lease is "
                        "reclaimed from a dead worker")
    p.add_argument("--fine", action="store_true",
                   help="serve the 13-unit prediction table")
    p.add_argument("--top-k", type=int, default=None,
                   help="truncate served predictions to the top K units")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "work", help="lease-execute-commit worker loop against a server")
    p.add_argument("--url", required=True, metavar="URL",
                   help="campaign service base URL (http://host:port)")
    p.add_argument("--worker", default="worker", metavar="ID",
                   help="worker identity reported in leases")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="the most faults one compiled-kernel call takes "
                        f"(default: {DEFAULT_BATCH}; 0 = scalar engine, as "
                        "in campaign)")
    p.add_argument("--ttl", type=float, default=None, metavar="S",
                   help="requested lease TTL per shard")
    p.add_argument("--max-shards", type=int, default=0, metavar="K",
                   help="stop after K commits (0 = run to completion)")
    p.set_defaults(func=cmd_work)

    p = sub.add_parser("disasm", help="disassemble a workload kernel")
    p.add_argument("kernel", choices=sorted(KERNELS))
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("kernels", help="list available workloads")
    p.set_defaults(func=cmd_kernels)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.plan = _exec_plan(args)
        check_top_k(getattr(args, "top_k", None))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner and benchmark CLI.

``agdh run`` executes one simulation (or several seeds with ``--repeat``),
writes the transcript and metrics, prints a summary, and exits 0 only if the
transcript audit is clean and the run converged.  ``agdh bench`` measures
blinding (a power of the generator) and response (a power of a received
blind) throughput and batched versus unbatched leader latency on the real
parameter sets, and names the kernel behind each group's powers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import random
import sys
import time
from collections import Counter

from . import gka_core
from .errors import ConfigError, CountMismatch, ProtocolError
from .group_arith import (
    PROD,
    TOY,
    ExpCounter,
    GroupParams,
    kernel_name,
    load_params,
    prodmod,
    random_scalar,
)
from .node_fsm import NodeConfig
from .oracle import audit_transcript, cost_table
from .scenario import load_scenario, parse_duration
from .simnet import SimConfig, replay, run


def _run_once(bundle: tuple[SimConfig, NodeConfig, GroupParams]
              ) -> tuple[bool, str]:
    """Whether one ``--repeat`` run converged with a clean audit, and its
    summary line."""
    sim_config, node_config, params = bundle
    result = run(sim_config, node_config, params)
    fold = replay(result)
    findings = len(audit_transcript(result).findings)
    ok = fold.converged and findings == 0
    return ok, (f"seed={sim_config.seed} converged={fold.converged}"
                f" converged_at={_time_or_never(fold.converged_at)}"
                f" leaders={fold.leaders} findings={findings}"
                f" [{'ok' if ok else 'FAIL'}]")


def _time_or_never(at: int | None) -> str:
    return "never" if at is None else f"{at}us"


class _ReaderGone(Exception):
    """The reader of stdout left before the output was written."""


def _emit(lines: list[str]) -> None:
    """Print the lines to stdout and flush them.  If the reader has left
    (``agdh run | head``), point stdout at devnull, so that the
    interpreter's exit flush stays quiet, and raise :class:`_ReaderGone`."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _ReaderGone from None


def _print_summary(result, fold, report, row) -> None:
    lines = ["run summary",
             f"  live nodes:   {fold.live}",
             f"  leaders:      {fold.leaders}",
             f"  converged:    {fold.converged}",
             f"  converged at: {_time_or_never(fold.converged_at)}"]
    key = fold.keys[fold.leaders[0]] if len(fold.leaders) == 1 else None
    if key is not None:
        lines.append(f"  final epoch:  {key.get('epoch')}")
        lines.append(f"  session key:  {key.get('key').hex()}")
    for rec in result.transcript.of_kind("KEY"):
        lines.append(f"  key t={rec.time}us node={rec.node}"
                     f" leader={rec.get('leader')} epoch={rec.get('epoch')}")
    if row is not None:
        lines.append(f"  cost row:     {row}")
    lines.append(f"  audit:        {'clean' if report.clean else 'FINDINGS'}"
                 f" ({len(report.findings)})")
    for kind, detail in report.findings[:10]:
        lines.append(f"    finding: {kind} {detail}")
    if len(report.findings) > 10:
        lines.append(f"    ... and {len(report.findings) - 10} more")
    _emit(lines)


def cmd_run(args) -> int:
    try:
        if args.repeat < 1:
            raise ConfigError("--repeat must be at least 1")
        if args.repeat > 1 and args.out:
            raise ConfigError("--out writes one run's files; it cannot be"
                              " combined with --repeat above 1")
        params = (load_params(args.params) if args.params
                  else TOY if args.toy else PROD)
        schedule = load_scenario(args.scenario) if args.scenario else ()
        node_config = NodeConfig()
        sim_config = SimConfig(
            node_count=args.nodes,
            loss_prob=args.loss,
            seed=args.seed,
            duration=parse_duration(args.duration),
            schedule=schedule,
        ).validate()
        if args.out:
            # last, so that a refused configuration leaves no directory
            os.makedirs(args.out, exist_ok=True)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.repeat > 1:
        configs = [
            (sim_config._replace(seed=args.seed + i), node_config, params)
            for i in range(args.repeat)
        ]
        workers = min(args.repeat, os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_once, configs))
        ok = sum(passed for passed, _ in summaries)
        _emit([line for _, line in summaries]
              + [f"{ok}/{args.repeat} runs converged with a clean audit"])
        return 0 if ok == args.repeat else 1

    result = run(sim_config, node_config, params)
    report = audit_transcript(result)
    row = None
    if args.loss == 0 and not args.scenario:
        try:
            row = cost_table(result, args.nodes).render()
        except CountMismatch as exc:
            row = f"not the paper's row ({exc})"
    if args.out:
        with open(os.path.join(args.out, "transcript.txt"), "w") as fh:
            fh.writelines(result.transcript.render_chunks())
        with open(os.path.join(args.out, "metrics.txt"), "w") as fh:
            fh.write(_metrics_text(result))
    fold = replay(result)
    _print_summary(result, fold, report, row)
    return 0 if report.clean and fold.converged else 1


def _metrics_text(result) -> str:
    """Counted in one pass over the transcript, except exponentiations,
    which no record carries: those come from each node's counter."""
    kinds, sent, broadcasts, keys = Counter(), Counter(), Counter(), []
    for rec in result.transcript:
        kinds[rec.kind] += 1
        if rec.kind == "SEND":
            sent[rec.node, rec.get("kind")] += 1
            if rec.get("dest") == "bcast":
                broadcasts[rec.node] += 1
        elif rec.kind == "KEY":
            keys.append(f"key t={rec.time} node={rec.node}"
                        f" leader={rec.get('leader')} epoch={rec.get('epoch')}"
                        f" derived={rec.get('key').hex()}")
    lines = [f"sent node={node} kind={kind} count={count}"
             for (node, kind), count in sorted(sent.items())]
    lines += [f"broadcasts node={node} count={count}"
              for node, count in sorted(broadcasts.items())]
    lines += [f"expos node={node} count={result.nodes[node].counter.count}"
              for node in sorted(result.nodes)]
    lines += [f"delivered {kinds['DELIVER']}", f"dropped {kinds['DROP']}",
              f"suppressed {kinds['SUPPRESS']}"]
    return "\n".join(lines + keys) + "\n"


def _bench_group(params: GroupParams, group_size: int, iters: int) -> list[str]:
    rng = random.Random(1)
    lines = [f"group {params.name}: {params.modulus.bit_length()}-bit modulus,"
             f" {params.order.bit_length()}-bit order",
             f"  kernel: {kernel_name(params)}"]

    secrets = [random_scalar(rng, params) for _ in range(iters)]
    # untimed: binds the native library and the modulus's Montgomery context
    gka_core.blind(secrets[0], params)
    t0 = time.perf_counter()
    blinded = [gka_core.blind(s, params) for s in secrets]
    dt = time.perf_counter() - t0
    lines.append(f"  blindings/sec: {iters / dt:,.0f}")

    # a response raises another member's blind: the variable-base case.
    # Each blind is a power of the generator and so already a known element:
    # respond's membership check costs no subgroup pow here, as in the
    # protocol.
    response_secret = random_scalar(rng, params)
    t0 = time.perf_counter()
    for b in blinded:
        gka_core.respond(b, response_secret, params)
    dt = time.perf_counter() - t0
    lines.append(f"  responses/sec: {iters / dt:,.0f}")

    while True:
        member_secrets = [random_scalar(rng, params) for _ in range(group_size - 1)]
        if (1 + sum(member_secrets)) % params.order != 0:
            break  # avoid the degenerate fold (relevant on tiny groups)
    shares = [
        gka_core.GroupEntry(i, bytes(16), gka_core.blind(s, params))
        for i, s in enumerate(member_secrets, start=1)
    ]
    leader_secret = random_scalar(rng, params)

    # unbatched: every exponentiation sits between the last contribution and
    # the announcement
    counter = ExpCounter()
    t0 = time.perf_counter()
    gka_core.compute_key_leader(leader_secret, shares, params, counter)
    unbatched_time = time.perf_counter() - t0
    lines.append(f"  unbatched leader (m={group_size}):"
                 f" {counter.count} expos on the critical path,"
                 f" {unbatched_time * 1e3:.1f} ms to announcement")

    # batched: the leader's blind and every response are computed before the
    # clock starts, as if each share were answered on arrival; only the
    # finalize's one product is timed
    counter = ExpCounter()
    leader_blind = gka_core.blind(leader_secret, params, counter)
    responses = [gka_core.respond(share.blinded_secret, leader_secret, params,
                                  counter)
                 for share in shares]
    before = counter.count
    t0 = time.perf_counter()
    prodmod(leader_blind, responses, params)
    batched_time = time.perf_counter() - t0
    lines.append(f"  batched leader (m={group_size}):"
                 f" {counter.count - before} expos on the critical path,"
                 f" {batched_time * 1e3:.3f} ms to announcement")
    return lines


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise ConfigError("--iters must be at least 1")
    if args.group_size < 1:
        raise ConfigError("--group-size must be at least 1")
    groups = [TOY, PROD]
    if args.params:
        try:
            groups.append(load_params(args.params))
        except OSError as exc:
            raise ConfigError(str(exc)) from None
    for params in groups:
        _emit(_bench_group(params, args.group_size, args.iters))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agdh",
        description="group key agreement protocol simulator and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation scenario")
    p_run.add_argument("--nodes", type=int, default=10)
    p_run.add_argument("--loss", type=float, default=0.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--duration", default="120s")
    p_run.add_argument("--scenario", help="scenario file (join/leave/partition/heal)")
    p_run.add_argument("--out", help="directory for transcript.txt and metrics.txt"
                                     " (a single run only)")
    group = p_run.add_mutually_exclusive_group()
    group.add_argument("--toy", action="store_true",
                       help="use the tiny test group instead of the production group")
    group.add_argument("--params", help="custom parameter file (p=,q=,g=,name=)")
    p_run.add_argument("--repeat", type=int, default=1,
                       help="fan out K independent seeds in parallel")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="throughput and batching benchmarks")
    p_bench.add_argument("--group-size", type=int, default=50)
    p_bench.add_argument("--iters", type=int, default=200)
    p_bench.add_argument("--params", help="additional parameter file to benchmark")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ReaderGone:
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

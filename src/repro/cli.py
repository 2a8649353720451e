"""Command-line interface: build and query wavelet synopses from files.

Examples::

    # Build a max-error synopsis of a column of numbers.
    python -m repro build data.txt --budget 1024 --algorithm dgreedy-abs \
        --output synopsis.json

    # Query it.
    python -m repro query synopsis.json --point 123
    python -m repro query synopsis.json --range 100 199

    # Inspect quality against the original data.
    python -m repro evaluate synopsis.json data.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.core.thresholding import ALGORITHMS, build_synopsis
from repro.data.loader import read_json
from repro.exceptions import InvalidInputError, ReproError
from repro.mapreduce.cluster import (
    RUNTIMES,
    ClusterConfig,
    SimulatedCluster,
    make_runtime,
)
from repro.mapreduce.hdfs import FileDataset
from repro.mapreduce.shuffle import DEFAULT_BUFFER_BYTES, SHUFFLE_MODES, ShuffleConfig
from repro.serving import Query, ShardedSynopsisStore
from repro.wavelet.metrics import DEFAULT_SANITY_BOUND
from repro.wavelet.synopsis import WaveletSynopsis

__all__ = ["main"]


def _load_data(path: str) -> np.ndarray:
    """Load a 1-D array from .npy or whitespace/comma-separated text."""
    location = Path(path)
    if not location.exists():
        raise ReproError(f"input file not found: {path}")
    if location.suffix == ".npy":
        data = np.load(location)
    else:
        text = location.read_text().replace(",", " ")
        try:
            data = np.array([float(token) for token in text.split()])
        except ValueError as exc:
            raise ReproError(f"non-numeric token in {path}: {exc}") from exc
    data = np.asarray(data, dtype=np.float64).ravel()
    if data.size == 0:
        raise ReproError(f"no numeric data found in {path}")
    return data


def _load_synopsis(path: str) -> WaveletSynopsis:
    return WaveletSynopsis.from_dict(read_json(path))


def _load_queries(path: str) -> list[Query]:
    """The batch in ``path``: a JSON list of objects with ``op`` and ``series``."""
    entries = read_json(path)
    if not (
        isinstance(entries, list)
        and all(isinstance(e, dict) and "op" in e and "series" in e for e in entries)
    ):
        raise InvalidInputError(
            f"{path} must hold a list of query objects, each with 'op' and 'series'"
        )
    return [
        Query(
            op=entry["op"],
            series=entry["series"],
            index=entry.get("index"),
            lo=entry.get("lo"),
            hi=entry.get("hi"),
        )
        for entry in entries
    ]


def _cmd_build(args: argparse.Namespace) -> int:
    data: FileDataset | np.ndarray
    if args.file_backed:
        if Path(args.data).suffix != ".npy":
            raise ReproError("--file-backed requires a .npy data file")
        data = FileDataset(args.data)
    else:
        data = _load_data(args.data)
    shuffle = ShuffleConfig(
        mode=args.shuffle,
        spill_dir=args.spill_dir,
        buffer_bytes=args.spill_buffer_bytes,
    )
    config = ClusterConfig(speculation=True) if args.speculation else ClusterConfig()
    cluster = SimulatedCluster(
        config=config, runtime=make_runtime(args.runtime, shuffle=shuffle)
    )
    if args.sanitize:
        _sanitizer.activate(_sanitizer.Sanitizer(label=args.runtime))
    try:
        synopsis = build_synopsis(
            data,
            budget=args.budget,
            algorithm=args.algorithm,
            delta=args.delta,
            sanity_bound=args.sanity_bound,
            subtree_leaves=args.subtree_leaves,
            cluster=cluster,
            rho=args.dp_rho,
            layer_plan=args.layer_plan,
        )
    finally:
        if args.sanitize:
            active = _sanitizer.deactivate()
            if active is not None:
                active.write(args.sanitize)
                print(f"wrote sanitizer report to {args.sanitize}", file=sys.stderr)
    if args.trace:
        Path(args.trace).write_text(json.dumps(cluster.log.trace(), indent=2))
        print(
            f"wrote trace ({cluster.log.job_count} jobs) to {args.trace}",
            file=sys.stderr,
        )
    payload = synopsis.to_dict()
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {synopsis.size}-coefficient synopsis to {args.output}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    if isinstance(data, FileDataset):
        # Out-of-core build: evaluating max_abs would materialize the
        # reconstruction over the whole input, defeating the point.
        quality = ""
    else:
        padded = np.pad(data, (0, synopsis.n - data.size))
        quality = f" max_abs={synopsis.max_abs_error(padded):.4f}"
    print(
        f"algorithm={args.algorithm} N={synopsis.n} size={synopsis.size}{quality}",
        file=sys.stderr,
    )
    if args.shuffle == "external":
        spills = sum(job.shuffle_stats.get("spills", 0) for job in cluster.log.jobs)
        spilled = sum(
            job.shuffle_stats.get("spilled_bytes_encoded", 0)
            for job in cluster.log.jobs
        )
        runs = sum(job.shuffle_stats.get("run_files", 0) for job in cluster.log.jobs)
        print(
            f"shuffle=external spills={spills} run_files={runs} "
            f"spilled_bytes={spilled}",
            file=sys.stderr,
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    synopsis = _load_synopsis(args.synopsis)
    if args.point is not None:
        print(synopsis.point_query(args.point))
    elif args.range is not None:
        lo, hi = args.range
        print(synopsis.range_sum(lo, hi))
    else:
        print("specify --point or --range", file=sys.stderr)
        return 2
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    synopsis = _load_synopsis(args.synopsis)
    data = _load_data(args.data)
    padded = np.zeros(synopsis.n)
    padded[: data.size] = data
    print(f"size     : {synopsis.size}")
    print(f"max_abs  : {synopsis.max_abs_error(padded):.6f}")
    print(f"max_rel  : {synopsis.max_rel_error(padded, args.sanity_bound):.6f}")
    print(f"L2       : {synopsis.l2_error(padded):.6f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    store_path = Path(args.store)
    if store_path.exists():
        store = ShardedSynopsisStore.load(store_path)
    else:
        store = ShardedSynopsisStore()
    for name, data_path in args.create or []:
        version = store.create(
            name,
            _load_data(data_path),
            tier=args.tier,
            budget=args.budget,
            epsilon=args.epsilon,
            delta=args.delta,
            base_leaves=args.base_leaves,
            subtree_leaves=args.subtree_leaves,
            rho=args.dp_rho,
        )
        print(
            f"created {name} v{version.version} tier={version.tier} "
            f"size={version.synopsis.size} guarantee={version.guarantee:.6g}",
            file=sys.stderr,
        )
    scratch = args.rebuild_mode == "scratch"
    for name, data_path in args.append or []:
        version = store.append(name, _load_data(data_path), full_rebuild=scratch)
        print(
            f"appended to {name}: v{version.version} mode={version.stats.mode} "
            f"reused={version.stats.reused_subtrees}/{version.stats.total_subtrees} "
            f"sub-trees",
            file=sys.stderr,
        )
    if args.queries:
        results = store.batch(_load_queries(args.queries))
        payload = [asdict(result) for result in results]
        if args.out:
            Path(args.out).write_text(json.dumps(payload, indent=2))
            print(f"wrote {len(payload)} query results to {args.out}", file=sys.stderr)
        else:
            json.dump(payload, sys.stdout, indent=2)
            print()
    store.save(store_path)
    if args.sanitize:
        report = store.digest_report(label=args.rebuild_mode)
        Path(args.sanitize).write_text(json.dumps(report, indent=2))
        print(
            f"wrote serving digest report ({len(report['jobs'])} versions) "
            f"to {args.sanitize}",
            file=sys.stderr,
        )
    for row in store.report():
        print(
            f"{row['series']}: v{row['version']} tier={row['tier']} "
            f"length={row['length']} coefficients={row['coefficients']} "
            f"guarantee={row['max_abs_guarantee']:.6g}",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Max-error wavelet synopses (SIGMOD'16 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build a synopsis from a data file")
    build.add_argument("data", help=".npy or text file with one number per token")
    build.add_argument("--budget", type=int, required=True, help="max coefficients B")
    build.add_argument(
        "--algorithm", default="dgreedy-abs", choices=sorted(ALGORITHMS)
    )
    build.add_argument("--delta", type=float, default=1.0, help="DP quantization step")
    build.add_argument(
        "--dp-rho",
        type=float,
        default=0.0,
        help="approximate DP tier coarsening knob: 0 is the exact DP, "
        "rho > 0 inflates the achieved error by at most (1 + rho) while "
        "shrinking M-rows and shuffle bytes (indirect-haar/dindirect-haar)",
    )
    build.add_argument(
        "--layer-plan",
        help="DP band schedule (dindirect-haar only): 'auto' asks the "
        "adaptive planner for the predicted-makespan minimizer, 'h=K' "
        "pins uniform height-K bands, 'H1,H2,...' (optionally "
        "'@driver') gives explicit bottom-up heights; omitted = the "
        "classic --subtree-leaves decomposition. Bit-identical output "
        "either way at --dp-rho 0",
    )
    build.add_argument(
        "--speculation",
        action="store_true",
        help="enable speculative backup attempts for straggling tasks in "
        "the simulated scheduler (affects simulated makespan only; "
        "results are unchanged)",
    )
    build.add_argument(
        "--sanity-bound", type=float, default=DEFAULT_SANITY_BOUND, help="rel-error S"
    )
    build.add_argument("--subtree-leaves", type=int, default=1024)
    build.add_argument(
        "--runtime",
        default="local",
        choices=sorted(RUNTIMES),
        help="task execution engine: 'local' (sequential in this process, "
        "cleanest cost-model timings) or 'process' (isolated worker "
        "processes)",
    )
    build.add_argument(
        "--shuffle",
        default="memory",
        choices=list(SHUFFLE_MODES),
        help="shuffle discipline: 'memory' (resident partitions) or "
        "'external' (bounded buffer, sorted spill runs, k-way merge); "
        "results are bit-identical either way",
    )
    build.add_argument(
        "--spill-dir",
        help="directory for external-shuffle run files (a system temp "
        "directory when omitted); always left empty afterwards",
    )
    build.add_argument(
        "--spill-buffer-bytes",
        type=int,
        default=DEFAULT_BUFFER_BYTES,
        help="external-shuffle in-memory buffer, in serde-model bytes",
    )
    build.add_argument(
        "--file-backed",
        action="store_true",
        help="read the .npy input through mmap-backed splits instead of "
        "loading it (out-of-core; dgreedy-abs/dgreedy-rel only)",
    )
    build.add_argument("--output", help="write the synopsis JSON here")
    build.add_argument(
        "--trace",
        help="write the run's stage-level trace JSON here (inspect with "
        "`python -m repro.observe`)",
    )
    build.add_argument(
        "--sanitize",
        metavar="REPORT",
        help="hash job outputs, shuffle partitions, and kernel row tables "
        "into this JSON report; compare two runtimes' reports with "
        "`python -m repro.analysis --compare-digests A B`",
    )
    build.set_defaults(handler=_cmd_build)

    query = commands.add_parser("query", help="query a stored synopsis")
    query.add_argument("synopsis", help="synopsis JSON from `repro build`")
    query.add_argument("--point", type=int, help="approximate value at this index")
    query.add_argument(
        "--range", type=int, nargs=2, metavar=("LO", "HI"), help="approximate range sum"
    )
    query.set_defaults(handler=_cmd_query)

    evaluate = commands.add_parser("evaluate", help="error metrics vs the original data")
    evaluate.add_argument("synopsis")
    evaluate.add_argument("data")
    evaluate.add_argument("--sanity-bound", type=float, default=DEFAULT_SANITY_BOUND)
    evaluate.set_defaults(handler=_cmd_evaluate)

    serve = commands.add_parser(
        "serve",
        help="online serving store: create/append series, answer batched queries",
    )
    serve.add_argument("store", help="store JSON (loaded if it exists, else created)")
    serve.add_argument(
        "--create",
        nargs=2,
        action="append",
        metavar=("NAME", "DATA"),
        help="register DATA under NAME and build version 1 (repeatable)",
    )
    serve.add_argument(
        "--append",
        nargs=2,
        action="append",
        metavar=("NAME", "DATA"),
        help="append DATA to series NAME and re-threshold (repeatable)",
    )
    serve.add_argument(
        "--tier",
        default="greedy",
        choices=("greedy", "dp"),
        help="maintenance tier for --create: 'greedy' keeps --budget "
        "coefficients, 'dp' pins an error target (--epsilon, or derived "
        "from --budget)",
    )
    serve.add_argument("--budget", type=int, default=64, help="max coefficients B")
    serve.add_argument(
        "--epsilon", type=float, help="pinned max-abs error target (dp tier)"
    )
    serve.add_argument("--delta", type=float, default=1.0, help="DP quantization step")
    serve.add_argument("--dp-rho", type=float, default=0.0, help="approximate DP knob")
    serve.add_argument(
        "--rebuild-mode",
        default="incremental",
        choices=("incremental", "scratch"),
        help="'incremental' re-thresholds only dirtied sub-trees on append; "
        "'scratch' rebuilds fully (the differential baseline) — results "
        "are identical, only the work differs",
    )
    serve.add_argument(
        "--queries",
        help="JSON file: list of {op, series, index|lo+hi} batched lookups",
    )
    serve.add_argument("--out", help="write query results JSON here (default stdout)")
    serve.add_argument("--base-leaves", type=int, default=1024)
    serve.add_argument("--subtree-leaves", type=int, default=1024)
    serve.add_argument(
        "--sanitize",
        metavar="REPORT",
        help="write per-version synopsis digests in the sanitizer report "
        "schema; incremental and scratch runs of the same sequence must "
        "compare clean under `python -m repro.analysis --compare-digests`",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

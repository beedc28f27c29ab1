"""Command-line harness: run scenarios, compare runs, operate the edge store.

Exit codes: 0 success, 1 usage error, 2 run failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .edge import EdgeClient, EdgeServer, EdgeStore, encode_dataset
from .errors import EnergyShareError
from .report import compare, write_run_artifacts
from .runner import check_pace, run_scenario
from .scenario import parse_scenario
from .transport import LOOPBACK_HOST, parse_addr, write_line

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_checked(parse):
    """An argparse type: ``parse``, with its ``ValueError`` a usage error naming the argument."""

    def check(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return check


_pace = _usage_checked(lambda text: check_pace(float(text)))
_address = _usage_checked(lambda text: parse_addr(text) and text)  # checked, kept as written
_port = _usage_checked(lambda text: parse_addr(f"{LOOPBACK_HOST}:{text}")[1])


def _build_parser() -> _Parser:
    parser = _Parser(prog="energyshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run one scenario end to end")
    run.add_argument("--scenario", required=True, type=Path, help="scenario file")
    run.add_argument("--out", type=Path, default=None, help="run output directory")
    run.add_argument("--upload", type=_address, default=None, metavar="HOST:PORT",
                     help="upload the session dataset to an edge service")
    run.add_argument("--pace", type=_pace, default=None,
                     help="real-time pacing factor of a wall run (a virtual run refuses one)")

    cmp_parser = sub.add_parser("compare", help="compare several finished runs")
    cmp_parser.add_argument("--out", required=True, type=Path, help="summary CSV path")
    cmp_parser.add_argument("run_dirs", nargs="+", type=Path, help="run directories")

    edge = sub.add_parser("edge", help="edge service operations")
    edge_sub = edge.add_subparsers(dest="edge_command", required=True, parser_class=_Parser)

    serve = edge_sub.add_parser("serve", help="serve the edge store over TCP")
    serve.add_argument("--port", type=_port, required=True)
    serve.add_argument("--data-dir", type=Path, required=True)
    serve.add_argument("--host", default=LOOPBACK_HOST)

    lst = edge_sub.add_parser("list", help="list stored sessions")
    lst.add_argument("--addr", type=_address, required=True, metavar="HOST:PORT")

    get = edge_sub.add_parser("get", help="fetch one stored session dataset")
    get.add_argument("--addr", type=_address, required=True, metavar="HOST:PORT")
    get.add_argument("session_id")

    return parser


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    result = run_scenario(scenario, pace=args.pace, upload_addr=args.upload)
    if args.out is not None:
        run_dir = write_run_artifacts(result, args.out)
        print(f"run artifacts written to {run_dir}")
    reason = result.terminal_reason.value if result.terminal_reason else "-"
    print(f"outcome: {result.outcome} (reason: {reason})")
    if result.dataset is not None:
        metrics = result.dataset.metrics
        print(
            f"session {result.dataset.session_id}: "
            f"{result.dataset.record_count} record pairs, "
            f"provider_loss={metrics.provider_loss_mah:.3f} mAh, "
            f"consumer_gain={metrics.consumer_gain_mah:.3f} mAh, "
            f"energy_loss={metrics.energy_loss_mah:.3f} mAh"
        )
        if result.upload_receipt is not None:
            print(
                f"uploaded to edge: {result.upload_receipt.session_id} "
                f"({result.upload_receipt.record_count} pairs)"
            )
        return EXIT_OK
    return EXIT_RUN_FAILURE


def _cmd_compare(args) -> int:
    report = compare(args.run_dirs, args.out)
    print(f"summary written to {report.summary_path}")
    print(f"level curves written to {report.curves_path}")
    worst = report.max_energy_loss_run()
    print(f"highest energy loss: {worst.run_id} ({worst.energy_loss_mah:.3f} mAh)")
    return EXIT_OK


def _cmd_edge(args) -> int:
    if args.edge_command == "serve":
        store = EdgeStore(args.data_dir)
        server = EdgeServer(store, host=args.host, port=args.port)
        print(f"edge service listening on {server.address}, data in {store.data_dir}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.stop()
        return EXIT_OK
    client = EdgeClient(args.addr)
    if args.edge_command == "list":
        for summary in client.list():
            print(write_line("SUMMARY", *summary).partition(" ")[2])  # its fields
        return EXIT_OK
    sys.stdout.writelines(encode_dataset(client.get(args.session_id)))  # "get", the one left
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the required subparsers leave no other command
    command = {"run": _cmd_run, "compare": _cmd_compare, "edge": _cmd_edge}[args.command]
    try:
        return command(args)
    except (EnergyShareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())

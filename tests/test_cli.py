"""CLI surface: subcommands, artifacts, exit codes."""

import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import scenario_text

import energyshare
from energyshare.cli import EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE, main
from energyshare.edge import EdgeServer, EdgeStore


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(scenario_text(value=10.0), encoding="utf-8")
    return path


def test_run_writes_artifacts(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "run.txt").exists()
    stdout = capsys.readouterr().out
    assert "outcome: Completed" in stdout


def test_run_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "rejected.cfg"
    path.write_text(
        scenario_text(value=10.0, extra="device.p1.accept_threshold_pct = 101\n"),
        encoding="utf-8",
    )
    code = main(["run", "--scenario", str(path)])
    assert code == EXIT_RUN_FAILURE
    assert "NoProviderAvailable" in capsys.readouterr().out


def test_missing_scenario_is_run_failure(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "nope.cfg")])
    assert code == EXIT_RUN_FAILURE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing --scenario
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("pace", ["0", "-1", "nan", "inf"])
def test_a_bad_pace_is_a_usage_error(scenario_file, pace):
    env = dict(os.environ, PYTHONPATH=str(Path(energyshare.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "energyshare.cli", "run", "--scenario", str(scenario_file),
         "--pace", pace],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if "error:" in line] == [
        f"energyshare run: error: argument --pace: pace must be finite and > 0, got {float(pace)!r}"
    ]


def test_compare_command(scenario_file, tmp_path, capsys):
    runs = []
    for tech in ("cable", "reverse"):
        cfg = tmp_path / f"{tech}.cfg"
        cfg.write_text(scenario_text(value=10.0, technology=tech), encoding="utf-8")
        out_dir = tmp_path / f"run-{tech}"
        assert main(["run", "--scenario", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        runs.append(str(out_dir))
    summary = tmp_path / "summary.csv"
    code = main(["compare", "--out", str(summary), *runs])
    assert code == EXIT_OK
    assert summary.exists()
    assert (tmp_path / "summary_curves.csv").exists()
    assert "highest energy loss" in capsys.readouterr().out


def test_run_with_upload_and_edge_queries(scenario_file, tmp_path, capsys):
    """``edge serve`` in its own process answers ``run --upload``, ``edge list`` and
    ``edge get``, and exits 0 on SIGINT."""
    # the package this test imports, whatever the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(energyshare.__file__).resolve().parents[1]))
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "energyshare.cli", "edge", "serve", "--port", "0",
         "--data-dir", str(tmp_path / "edge-data")],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert select.select([server.stdout], [], [], 30.0)[0], "edge serve printed nothing"
        address = re.search(r"listening on (\S+),", server.stdout.readline()).group(1)
        code = main([
            "run", "--scenario", str(scenario_file),
            "--out", str(tmp_path / "out"), "--upload", address,
        ])
        assert code == EXIT_OK
        capsys.readouterr()

        assert main(["edge", "list", "--addr", address]) == EXIT_OK
        listing = capsys.readouterr().out
        assert "ses-req-short-c1-a1" in listing

        assert main(["edge", "get", "--addr", address, "ses-req-short-c1-a1"]) == EXIT_OK
        dump = capsys.readouterr().out
        assert "session_id = ses-req-short-c1-a1" in dump
        assert "tick_index,wall_time_s" in dump

        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30.0) == EXIT_OK
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()


def test_edge_get_unknown_session(tmp_path, capsys):
    store = EdgeStore(tmp_path / "edge-data")
    server = EdgeServer(store).start()
    try:
        code = main(["edge", "get", "--addr", server.address, "ses-ghost"])
        assert code == EXIT_RUN_FAILURE
    finally:
        server.stop()


# replies an edge client cannot read: one that ends early, one that does not decode
UNREADABLE_REPLIES = {
    "get_closed_inside_meta": (["get", "s1"], "DATASET s1 1\nsession_id = s1\n"),
    "get_without_a_trace": (["get", "s1"], "DATASET s1 1\nfoo = bar\n\nEND\n"),
    "list_with_a_short_summary": (["list"], "SUMMARY session_id=s1\n"),
}


@pytest.mark.parametrize("command, reply", UNREADABLE_REPLIES.values(), ids=UNREADABLE_REPLIES)
def test_edge_queries_report_an_unreadable_reply_in_one_line(command, reply, capsys):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer_once():
            conn, _ = listener.accept()
            with conn, conn.makefile("r", encoding="utf-8", newline="\n") as request:
                request.readline()
                conn.sendall(reply.encode("utf-8"))

        server = threading.Thread(target=answer_once, daemon=True)
        server.start()
        address = f"127.0.0.1:{listener.getsockname()[1]}"
        code = main(["edge", command[0], "--addr", address, *command[1:]])
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert code == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

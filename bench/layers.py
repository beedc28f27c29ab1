"""Trace points at the program's layer boundaries and the per-layer metrics they give.

Layers are the modules of ``src/energyshare``. Each trace point wraps a
function where the calling module looks it up (``energyshare.runner``'s
own ``transfer_tick``, ``energyshare.transport``'s own ``encode_message``
and so on), so the program's code runs unchanged.
"""

from __future__ import annotations

from energyshare import edge, monitor, protocol, report, runner, scenario, transport

from harness import Metric, Recorder, Tracer, percentile


def install(tracer: Tracer) -> None:
    sim = transport.SimTransport

    def rows_out(args, result):
        tracer.count("monitor.csv_rows_written", 2 * len(args[0]))

    def rows_in(args, result):
        tracer.count("monitor.csv_rows_read", len(result))

    def useful(args, result):
        if result:
            tracer.count("transport.sim.useful_receives")

    points = [
        (scenario, "parse_scenario_text", "scenario.parse", None),
        (runner, "_run_virtual", "runner.virtual_loop", None),
        (runner, "_run_wall", "runner.wall_loop", None),
        (runner.ChargingEngine, "step", "runner.engine_step", None),
        (runner, "transfer_tick", "battery.transfer_tick", None),
        (runner, "record_tick", "monitor.record_tick", None),
        (runner, "transition", "protocol.transition", None),
        (runner, "make_request", "protocol.make_request", None),
        (runner, "rank_providers", "matching.rank", None),
        (runner, "compute_metrics", "monitor.compute_metrics", None),
        (protocol.ProviderSessions, "begin_charging", "protocol.begin_charging", None),
        (transport, "encode_message", "protocol.encode", None),
        (transport, "decode_message", "protocol.decode", None),
        (sim, "receive", "transport.sim.receive", useful),
        (sim, "next_delivery_time", "transport.sim.next_delivery", None),
        (transport.TcpTransport, "send", "transport.tcp.send", None),
        (transport.TcpTransport, "receive", "transport.tcp.receive", None),
        (transport.RegistryServer, "_handle", "transport.registry.request", None),
        (monitor, "trace_csv_text", "monitor.trace_csv", rows_out),
        (edge, "trace_csv_text", "monitor.trace_csv", rows_out),
        (monitor, "records_from_csv_text", "monitor.csv_parse", rows_in),
        (edge, "records_from_csv_text", "monitor.csv_parse", rows_in),
        (edge, "compute_metrics", "monitor.compute_metrics", None),
        (report, "write_run_artifacts", "report.write_artifacts", None),
        (report, "load_run", "report.load_run", None),
        (edge, "validate_dataset", "edge.validate", None),
        (edge, "dataset_digest", "edge.digest", None),
        (edge.EdgeStore, "upload", "edge.store_upload", None),
        (edge.EdgeStore, "get", "edge.store_get", None),
        (edge.EdgeStore, "list", "edge.store_list", None),
        (edge.EdgeClient, "upload", "edge.client_request", None),
        (edge.EdgeClient, "get", "edge.client_request", None),
        (edge.EdgeClient, "list", "edge.client_request", None),
    ]
    for owner, attr, name, post in points:
        tracer.wrap(owner, attr, name, post)

    original_send = sim.send

    def send(self, frm, to, msg):
        inbox = self._inboxes.get(to)
        queued = len(inbox) if inbox is not None else 0
        tracer.call("transport.sim.send", original_send, self, frm, to, msg)
        if inbox is not None and len(inbox) == queued:
            tracer.count("transport.sim.drops")

    tracer.replace(sim, "send", send)


def layer_metrics(tracer: Tracer, rec: Recorder, untraced: Recorder, ready_s: list[float],
                  span_cost_s: float = 0.0) -> list[Metric]:
    """Every per-layer metric of the benchmark, 0 where the workload does not reach the layer.

    Busy and self times exclude ``span_cost_s`` per nested traced call.
    """
    totals = tracer.totals(span_cost_s)
    counts = tracer.counts()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def mean(name: str, scale: float) -> float:
        n, busy, _ = totals.get(name, (0, 0.0, 0.0))
        return busy / n * scale if n else 0.0

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = calls("battery.transfer_tick")
    rows_out = counts.get("monitor.csv_rows_written", 0)
    rows_in = counts.get("monitor.csv_rows_read", 0)
    receives = calls("transport.sim.receive")
    requests = calls("protocol.make_request")
    wall_runs = calls("runner.wall_loop")
    sessions = calls("runner.virtual_loop") + wall_runs
    disk = untraced.values["disk_write_bytes_per_upload"]
    loop_self_raw = per(tracer.totals().get("runner.virtual_loop", (0, 0.0, 0.0))[2] * 1e6,
                        calls("battery.transfer_tick"))
    values = rec.values
    us, ms = 1e6, 1e3

    def m(name, value, unit, n, note=""):
        return Metric(name, float(value), unit, n, note)

    return [
        m("battery.transfer_tick_us", mean("battery.transfer_tick", us), "us", ticks),
        m("battery.ticks", ticks, "count", ticks),
        m("protocol.encode_us", mean("protocol.encode", us), "us", calls("protocol.encode")),
        m("protocol.decode_us", mean("protocol.decode", us), "us", calls("protocol.decode")),
        m("protocol.messages", calls("protocol.encode"), "count", calls("protocol.encode")),
        m("protocol.transition_us", mean("protocol.transition", us), "us", calls("protocol.transition")),
        m("matching.rank_us", mean("matching.rank", us), "us", calls("matching.rank")),
        m("matching.requests_per_session", per(requests, sessions), "1", sessions),
        m("matching.accept_ratio", per(calls("protocol.begin_charging"), requests), "1", requests,
          "charging sessions / requests sent"),
        m("transport.sim.send_us", mean("transport.sim.send", us), "us", calls("transport.sim.send")),
        m("transport.sim.receive_us", mean("transport.sim.receive", us), "us", receives),
        m("transport.sim.receive_calls_per_tick", per(receives, ticks), "1", receives),
        m("transport.sim.useful_receive_ratio",
          per(counts.get("transport.sim.useful_receives", 0), receives), "1", receives,
          "receive calls that returned a message / all calls"),
        m("transport.sim.next_delivery_us", mean("transport.sim.next_delivery", us), "us",
          calls("transport.sim.next_delivery")),
        m("transport.sim.drops", counts.get("transport.sim.drops", 0), "count",
          calls("transport.sim.send")),
        m("transport.tcp.send_us", mean("transport.tcp.send", us), "us", calls("transport.tcp.send")),
        m("transport.tcp.receive_wait_ms", mean("transport.tcp.receive", ms), "ms",
          calls("transport.tcp.receive"), "mean time blocked per receive call"),
        m("transport.registry.requests_per_run", per(calls("transport.registry.request"), wall_runs),
          "1", wall_runs),
        m("monitor.record_tick_us", mean("monitor.record_tick", us), "us", calls("monitor.record_tick")),
        m("monitor.trace_csv_ms_per_1k", per(totals.get("monitor.trace_csv", (0, 0.0))[1] * ms, rows_out / 1e3),
          "ms", rows_out, "per 1000 CSV rows"),
        m("monitor.csv_parse_ms_per_1k", per(totals.get("monitor.csv_parse", (0, 0.0))[1] * ms, rows_in / 1e3),
          "ms", rows_in, "per 1000 CSV rows"),
        m("monitor.compute_metrics_ms", mean("monitor.compute_metrics", ms), "ms",
          calls("monitor.compute_metrics")),
        m("edge.validate_ms", mean("edge.validate", ms), "ms", calls("edge.validate")),
        m("edge.digest_ms", mean("edge.digest", ms), "ms", calls("edge.digest")),
        m("edge.store_upload_ms", mean("edge.store_upload", ms), "ms", calls("edge.store_upload")),
        m("edge.store_get_ms", mean("edge.store_get", ms), "ms", calls("edge.store_get")),
        m("edge.store_list_ms", mean("edge.store_list", ms), "ms", calls("edge.store_list")),
        m("edge.client_wait_ms", mean("edge.client_request", ms), "ms", calls("edge.client_request"),
          "mean client request time, send to last reply byte"),
        m("edge.disk_write_bytes_per_upload", disk[-1] if disk else 0, "bytes",
          len(untraced.latencies["write"]),
          "server process /proc/<pid>/io write_bytes, untraced phase"),
        m("edge.stored_sessions", values["stored"][-1] if values["stored"] else 0, "count",
          len(values["stored"])),
        m("edge.err_replies", len(values["err_replies"]), "count", rec.attempted),
        m("scenario.parse_ms", mean("scenario.parse", ms), "ms", calls("scenario.parse")),
        m("report.write_artifacts_ms", mean("report.write_artifacts", ms), "ms",
          calls("report.write_artifacts")),
        m("runner.engine_step_us", mean("runner.engine_step", us), "us", calls("runner.engine_step")),
        m("runner.loop_self_us_per_tick",
          per(totals.get("runner.virtual_loop", (0, 0.0, 0.0))[2] * us, ticks), "us",
          calls("runner.virtual_loop"),
          f"self time of the virtual loop per tick; {loop_self_raw:.4g} before taking off the tracer's"
          " cost, which dominates when every agent's receive is traced (cafe_crowd)"),
        m("runner.aborted_sessions", sum(values["aborted"]), "count", sessions),
        m("runner.wall.overhead_ms", sum(values["wall_overhead_ms"]) / len(values["wall_overhead_ms"])
          if values["wall_overhead_ms"] else 0, "ms", len(values["wall_overhead_ms"]),
          "run time - duration/pace"),
        m("runner.wall.threads_left", sum(values["threads_left"]) / len(values["threads_left"])
          if values["threads_left"] else 0, "count", len(values["threads_left"]),
          "threads still alive after each wall run"),
        m("cli.edge_ready_ms", percentile(ready_s, 50.0) * ms if ready_s else 0, "ms", len(ready_s),
          "edge server spawn -> listening, median of set-ups"),
    ]

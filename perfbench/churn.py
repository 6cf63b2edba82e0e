"""The ``churn-off`` and ``churn-wal`` workloads.

``repro serve`` runs in its own process. This process is the load
generator: over one connection it drives ``ROUNDS`` sessions in turn,
each with its own seeded :func:`repro.service.workload.generate_events`
stream, in four phases:

1. an untimed warm-up, until the client population is steady;
2. a closed loop of single-event ``batch`` requests (the latency phase);
3. a saturation phase of 200-event batches with 8 in flight;
4. an untimed settle batch that recovers and heals every server.

Afterwards each session's events are replayed in-process and the wire
results are checked against the replay.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    CheckFailed,
    child_env,
    cpu_seconds,
    derived_seed,
    latency_summary,
    median,
    now,
    peak_rss_mib,
    percentile,
    require,
)

#: Session under test: meridian-like, 1000 nodes, 16 k-center-b servers.
SESSION = {
    "nodes": 1000,
    "kind": "meridian",
    "n_servers": 16,
    "placement": "k-center-b",
    "capacity": None,
    "join_policy": "greedy",
}
#: Heavy-event cadence of the generated stream (events between them).
STREAM = {"fault_every": 1000, "partition_every": 1500, "rebalance_every": 500}
#: Untimed events that bring a session to its steady ~983 clients.
WARMUP_EVENTS = 3000
#: Closed-loop single-event requests per second of run budget, sized so
#: the latency phase takes about a third of ``--seconds``.
LATENCY_REQUESTS_PER_S = {"off": 400, "wal": 400}
#: Sessions per run, each with its own stream (see :func:`drive`).
ROUNDS = 4
BATCH = 200
DEPTH = 8
#: Saturation replies per throughput window (2000 events).
WINDOW_BATCHES = 10
#: Saturation-phase events per second of run budget, sized so the phase
#: takes about the rest of ``--seconds`` at the measured speed of each
#: mode.
SATURATION_EVENTS_PER_S = {"off": 4500, "wal": 1000}
SETUP_REPEATS = 3
#: Move budget of the rebalance that ends every run.
SETTLE_MOVES = 64
REPLY_TIMEOUT_S = 60.0


class TrajectoryHasher:
    """SHA-256 of a trajectory, fed one entry at a time.

    Produces the same digest as :func:`repro.service.replay.trajectory_digest`
    over the whole list, without holding the list.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256(b"[")
        self._first = True

    def add(self, entry: Dict[str, Any]) -> None:
        if not self._first:
            self._hash.update(b",")
        self._first = False
        self._hash.update(
            json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )

    def hexdigest(self) -> str:
        final = self._hash.copy()
        final.update(b"]")
        return final.hexdigest()


class Wire:
    """One JSON-lines connection; replies are read as they arrive."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self._next_id = 1

    def frame(self, op: str, **params: Any) -> bytes:
        payload = {"id": self._next_id, "op": op}
        self._next_id += 1
        payload.update(params)
        return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def poll(self, timeout: float) -> List[Tuple[float, bytes]]:
        """Complete reply lines that arrive within ``timeout`` seconds."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return []
        chunk = self.sock.recv(1 << 20)
        stamp = now()
        if not chunk:
            raise CheckFailed("server closed the connection")
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        return [(stamp, line) for line in lines]

    def spin(self, timeout: float) -> Tuple[float, bytes]:
        """Busy-poll for exactly one reply line.

        Polling without sleeping keeps the generator's own wake-up delay
        out of the measured latency.
        """
        deadline = now() + timeout
        while b"\n" not in self._buffer:
            try:
                chunk = self.sock.recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if now() > deadline:
                    raise CheckFailed("reply timed out") from None
                continue
            if not chunk:
                raise CheckFailed("server closed the connection")
            self._buffer += chunk
        stamp = now()
        line, self._buffer = self._buffer.split(b"\n", 1)
        require(not self._buffer, "more than one reply to a single request")
        return stamp, line

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        self.send(self.frame(op, **params))
        deadline = now() + REPLY_TIMEOUT_S
        while True:
            lines = self.poll(deadline - now())
            if lines:
                require(len(lines) == 1, f"unexpected extra replies to {op}")
                reply = json.loads(lines[0][1])
                require(reply.get("ok") is True, f"{op} failed: {reply.get('error')}")
                return reply["result"]
            require(now() < deadline, f"no reply to {op}")

    def close(self) -> None:
        """Half-close, then wait for the server to close its side."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
            deadline = now() + REPLY_TIMEOUT_S
            while now() < deadline:
                ready, _, _ = select.select([self.sock], [], [], deadline - now())
                if ready and not self.sock.recv(1 << 16):
                    break
        except OSError:
            pass
        finally:
            self.sock.close()


class Server:
    """A ``repro serve`` process (optionally under the span launcher)."""

    def __init__(self, workdir: Path, tag: str, spans: Optional[Path]) -> None:
        base = workdir / f"sessions-{tag}"
        cli = ["serve", "--port", "0", "--base-dir", str(base)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans), *cli]
        self.stderr_path = workdir / f"server-{tag}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(workdir),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop(expect_clean=False)
            raise CheckFailed(f"server did not start: {line!r} {self.stderr()}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")

    def stop(self, *, expect_clean: bool = True) -> None:
        """SIGINT the server and wait; a dirty exit fails the run."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            if expect_clean:
                raise CheckFailed("server did not exit after SIGINT")
        finally:
            self.proc.stdout.close()
            self._stderr.close()
        if expect_clean:
            text = self.stderr()
            require(self.proc.returncode == 0, f"server exited {self.proc.returncode}")
            require("Traceback" not in text, f"server wrote a traceback:\n{text}")


def _session_params(mode: str) -> Dict[str, Any]:
    params = dict(SESSION)
    params["durability"] = mode
    return params


def start_session(
    workdir: Path, mode: str, tag: str, spans: Optional[Path] = None
) -> Tuple[Server, Wire, Dict[str, Any], float]:
    """Launch a server and open the session; returns the set-up time."""
    started = now()
    server = Server(workdir, tag, spans)
    wire = Wire(*server.address)
    opened = wire.call("open_session", **_session_params(mode))
    return server, wire, opened, now() - started


def finish_session(server: Server, wire: Wire, session: str) -> None:
    """Close the session and the connection, then stop the server."""
    wire.call("close_session", session=session)
    wire.close()
    server.stop()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def pipelined(
    wire: Wire, session: str, events: Sequence[Dict[str, Any]]
) -> Tuple[List[bytes], float, List[float]]:
    """Send ``events`` in batches with ``DEPTH`` in flight.

    Returns the reply lines, the phase start and each reply's arrival.
    """
    frames = [
        wire.frame("batch", session=session, events=list(events[i : i + BATCH]))
        for i in range(0, len(events), BATCH)
    ]
    replies: List[bytes] = []
    arrivals: List[float] = []
    inflight = 0
    sent = 0
    started = now()
    while sent < len(frames) or inflight:
        while sent < len(frames) and inflight < DEPTH:
            wire.send(frames[sent])
            sent += 1
            inflight += 1
        lines = wire.poll(REPLY_TIMEOUT_S)
        require(bool(lines), "saturation replies timed out")
        for stamp, line in lines:
            replies.append(line)
            arrivals.append(stamp)
        inflight -= len(lines)
    return replies, started, arrivals


def window_rates(started: float, arrivals: Sequence[float]) -> List[float]:
    """Events per second over consecutive windows of ``WINDOW_BATCHES`` replies.

    A phase shorter than one window is one window.
    """
    size = min(WINDOW_BATCHES, len(arrivals))
    rates = []
    previous = started
    for end in range(size, len(arrivals) + 1, size):
        rates.append(size * BATCH / (arrivals[end - 1] - previous))
        previous = arrivals[end - 1]
    return rates


def closed_loop(
    wire: Wire, session: str, events: Sequence[Dict[str, Any]]
) -> Tuple[List[bytes], List[float], List[float], float, float]:
    """Single-event requests, each sent as soon as the previous reply is in.

    The generator busy-polls for each reply (see :meth:`Wire.spin`).

    Returns the reply lines, per-request latency (send to reply), the
    generator's turnaround between a reply and the next send, and the
    phase start and end.
    """
    frames = [wire.frame("batch", session=session, events=[e]) for e in events]
    replies: List[bytes] = []
    latency: List[float] = []
    turnaround: List[float] = []
    start = last = now()
    for frame in frames:
        sent = now()
        turnaround.append(sent - last)
        wire.send(frame)
        last, line = wire.spin(REPLY_TIMEOUT_S)
        latency.append(last - sent)
        replies.append(line)
    return replies, latency, turnaround, start, now()


def stream_for(servers: Sequence[int], n_events: int, seed: int) -> List[Dict[str, Any]]:
    from repro.service.workload import generate_events

    return generate_events(
        SESSION["nodes"], servers, n_events=n_events, seed=seed, **STREAM
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def read_replies(lines: Sequence[bytes], hasher: TrajectoryHasher) -> int:
    """Fold reply lines into the trajectory; returns inline error count."""
    errors = 0
    for line in lines:
        reply = json.loads(line)
        require(reply.get("ok") is True, f"batch request failed: {reply.get('error')}")
        for entry in reply["result"]["results"]:
            if "error" in entry:
                errors += 1
            hasher.add(entry)
    return errors


def check_against_library(
    config_dict: Dict[str, Any],
    events: Sequence[Dict[str, Any]],
    wire_digest: str,
    wire_trajectory: str,
    wire_d_ms: float,
) -> None:
    """Wire results must equal in-process replays of the same events.

    ``replay_events`` is the library's independent replayer; a volatile
    ``DurableRuntime`` driven call by call supplies the final assignment
    whose D is recomputed from scratch.
    """
    from repro.core.metrics import max_interaction_path_length
    from repro.resilience.runtime import DurabilityConfig, DurableRuntime
    from repro.service.core import SessionConfig
    from repro.service.replay import replay_events, trajectory_digest

    config = SessionConfig.from_dict(config_dict)
    matrix = config.build_matrix()
    library = replay_events(matrix, config, events)
    require(library.digest == wire_digest, "state digest differs from replay_events")
    require(
        trajectory_digest(library.trajectory) == wire_trajectory,
        "reply trajectory differs from replay_events",
    )
    runtime = DurableRuntime(
        None,
        matrix,
        config.resolve_servers(matrix),
        online=config.online,
        durability=DurabilityConfig(mode="off"),
        readmit_moves=config.readmit_moves,
        shed_policy=config.shed_policy,
        policy=config.degrade_policy(),
    )
    with runtime:
        for event in events:
            _apply(runtime, event)
        require(runtime.digest() == wire_digest, "DurableRuntime digest differs")
        _problem, assignment, _nodes = runtime.manager.snapshot()
        exact = max_interaction_path_length(assignment)
    require(
        math.isclose(exact, wire_d_ms, rel_tol=1e-12, abs_tol=0.0),
        f"reported D {wire_d_ms!r} != recomputed D {exact!r}",
    )


def _apply(runtime: Any, event: Dict[str, Any]) -> None:
    op = event["op"]
    if op in ("join", "leave"):
        getattr(runtime, op)(event["node"])
    elif op == "crash":
        runtime.crash(event["server"])
    elif op == "recover":
        runtime.recover_server(event["server"])
    elif op in ("partition", "heal"):
        getattr(runtime, op)(event["servers"])
    elif op == "rebalance":
        runtime.rebalance(max_moves=event["max_moves"])
    else:
        raise CheckFailed(f"unexpected event {event!r}")


def settle_events(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Recover and heal every server the stream left out, then rebalance.

    Ending every run in this state makes the final D/LB a property of
    the assignment policy rather than of which servers a seed happened
    to leave down.
    """
    down: set = set()
    unreachable: set = set()
    for event in events:
        op = event["op"]
        if op == "crash":
            down.add(event["server"])
        elif op == "recover":
            down.discard(event["server"])
        elif op == "partition":
            unreachable.update(event["servers"])
        elif op == "heal":
            unreachable.difference_update(event["servers"])
    settle: List[Dict[str, Any]] = [{"op": "recover", "server": s} for s in sorted(down)]
    if unreachable:
        settle.append({"op": "heal", "servers": sorted(unreachable)})
    settle.append({"op": "rebalance", "max_moves": SETTLE_MOVES})
    return settle


# ----------------------------------------------------------------------
# Measured sessions
# ----------------------------------------------------------------------
def drive_round(
    server: Server,
    wire: Wire,
    opened: Dict[str, Any],
    mode: str,
    seed: int,
    seconds: float,
    latency_phase: bool,
) -> Dict[str, Any]:
    """One session: warm-up, latency segment, saturation segment, settle."""
    session = opened["session"]
    servers = [int(s) for s in opened["servers"]]
    config = wire.call("query", session=session, what="config")["config"]
    n_latency = int(LATENCY_REQUESTS_PER_S[mode] * seconds / ROUNDS) if latency_phase else 0
    n_sat = int(SATURATION_EVENTS_PER_S[mode] * seconds / ROUNDS)
    events = stream_for(servers, WARMUP_EVENTS + n_latency + n_sat, seed)
    warm, latency_events, sat_events = (
        events[:WARMUP_EVENTS],
        events[WARMUP_EVENTS : WARMUP_EVENTS + n_latency],
        events[WARMUP_EVENTS + n_latency :],
    )
    hasher = TrajectoryHasher()
    replies, _, _ = pipelined(wire, session, warm)
    errors = read_replies(replies, hasher)

    latency: List[float] = []
    lag: List[float] = []
    timed_start = now()
    if n_latency:
        replies, latency, lag, timed_start, _ = closed_loop(
            wire, session, latency_events
        )
        errors += read_replies(replies, hasher)

    cpu0, gen0 = cpu_seconds(server.pid), time.process_time()
    replies, sat_start, arrivals = pipelined(wire, session, sat_events)
    sat_end = arrivals[-1]
    server_cpu = cpu_seconds(server.pid) - cpu0
    loadgen_cpu = time.process_time() - gen0
    errors += read_replies(replies, hasher)

    settle = settle_events(events)
    replies, _, _ = pipelined(wire, session, settle)
    errors += read_replies(replies, hasher)
    inter = wire.call("query", session=session, what="interactivity")
    digest = wire.call("query", session=session, what="digest")["digest"]
    wal_path = opened.get("wal")
    return {
        "config": config,
        "events": events + settle,
        "errors": errors,
        "digest": digest,
        "trajectory": hasher.hexdigest(),
        "d_ms": inter["d_ms"],
        "interactivity": inter["normalized"],
        "rates": window_rates(sat_start, arrivals),
        "sat_events": len(sat_events),
        "sat_window": (sat_start, sat_end),
        "timed_window": (timed_start, sat_end),
        "server_cpu_s": server_cpu,
        "loadgen_cpu_s": loadgen_cpu,
        "latency": latency,
        "lag": lag,
        "wal_bytes": Path(wal_path).stat().st_size if wal_path else 0,
    }


def drive(
    workdir: Path,
    mode: str,
    seed: int,
    seconds: float,
    *,
    tag: str,
    spans: Optional[Path] = None,
    latency_phase: bool = True,
) -> Dict[str, Any]:
    """Start a server and drive ``ROUNDS`` sessions through it in turn.

    Each session runs its own stream (seeded from ``seed`` and its round
    index), so one run samples several streams and the whole run's
    stretch of host time.
    """
    server, wire, opened, setup_s = start_session(workdir, mode, tag, spans)
    rounds: List[Dict[str, Any]] = []
    # The generator creates no reference cycles; a collector pause here
    # would show up as send lag and inflate the measured latency.
    gc.collect()
    gc.disable()
    try:
        for index in range(ROUNDS):
            if index:
                opened = wire.call("open_session", **_session_params(mode))
            rounds.append(
                drive_round(
                    server, wire, opened, mode, derived_seed(seed, index),
                    seconds, latency_phase,
                )
            )
            wire.call("close_session", session=opened["session"])
        rss = peak_rss_mib(server.pid)
        wire.close()
        server.stop()
    except BaseException:
        wire.close()
        server.stop(expect_clean=False)
        raise
    finally:
        gc.enable()
    sat_wall = sum(r["sat_window"][1] - r["sat_window"][0] for r in rounds)
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "n_events": sum(len(r["events"]) for r in rounds),
        "errors": sum(r["errors"] for r in rounds),
        "events_per_s": median([x for r in rounds for x in r["rates"]]),
        "sat_events": sum(r["sat_events"] for r in rounds),
        "sat_windows": [r["sat_window"] for r in rounds],
        "timed_windows": [r["timed_window"] for r in rounds],
        "server_cpu_share": sum(r["server_cpu_s"] for r in rounds) / sat_wall,
        "loadgen_cpu_share": sum(r["loadgen_cpu_s"] for r in rounds) / sat_wall,
        "wal_bytes": sum(r["wal_bytes"] for r in rounds),
        "lag": [x for r in rounds for x in r["lag"]],
        "peak_rss_mib": rss,
    }


def check_run(result: Dict[str, Any]) -> None:
    """Every round's wire output must match the library; D/LB finite, >= 1."""
    for r in result["rounds"]:
        require(
            r["interactivity"] is not None
            and math.isfinite(r["interactivity"])
            and r["interactivity"] >= 1.0,
            f"interactivity {r['interactivity']!r} is not finite and >= 1",
        )
        check_against_library(
            r["config"], r["events"], r["digest"], r["trajectory"], r["d_ms"]
        )


def extra_setups(workdir: Path, mode: str) -> List[float]:
    """Set-up times of throwaway launches (server start + open_session)."""
    times = []
    for i in range(SETUP_REPEATS - 1):
        server, wire, opened, setup_s = start_session(workdir, mode, f"setup{i}")
        finish_session(server, wire, opened["session"])
        times.append(setup_s)
    return times


def run(workdir: Path, mode: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    setups = extra_setups(workdir, mode)
    result = drive(workdir, mode, seed, seconds, tag="main")
    setups.append(result["setup_s"])
    check_run(result)
    rounds = result["rounds"]
    lat = latency_summary([x for r in rounds for x in r["latency"]])
    attempted = result["n_events"]
    failed = result["errors"]
    metrics = {
        "setup_s": median(setups),
        "events_per_s": result["events_per_s"],
        "interactivity": median([r["interactivity"] for r in rounds]),
        "wall_s": 10_000.0 / result["events_per_s"],
        "d_ms": median([r["d_ms"] for r in rounds]),
        "peak_rss_mib": result["peak_rss_mib"],
        "ok_frac": (attempted - failed) / attempted,
    }
    record = {
        "round_seeds": [derived_seed(seed, i) for i in range(ROUNDS)],
        "events_per_s_windows": [x for r in rounds for x in r["rates"]],
        "latency_samples": lat["n"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p99_ms": lat["p99_ms"],
        "latency_p99_ms_per_round": [
            percentile(r["latency"], 99.0) * 1e3 for r in rounds
        ],
        "tail_rule": {"percentile": lat["tail_q"], "ms": lat["tail_ms"]},
        "interactivity_per_round": [r["interactivity"] for r in rounds],
        "setup_samples": setups,
        "saturation_events": result["sat_events"],
        "events_sent": attempted,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


def run_traced(workdir: Path, mode: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: an untraced saturation-only pass, then a traced one."""
    import layers
    import tracer

    plain = drive(workdir, mode, seed, seconds, tag="plain", latency_phase=False)
    spans_path = workdir / "spans.bin"
    traced = drive(workdir, mode, seed, seconds, tag="traced", spans=spans_path)
    check_run(traced)
    spans, extra = tracer.load(str(spans_path))
    metrics = layers.churn_metrics(spans, extra["registry"], traced)
    metrics["loadgen.lag_p99_ms"] = percentile(traced["lag"], 99.0) * 1e3
    metrics["trace.untraced_per_s"] = plain["events_per_s"]
    metrics["trace.traced_per_s"] = traced["events_per_s"]
    metrics["trace.overhead_share"] = 1.0 - traced["events_per_s"] / plain["events_per_s"]
    record = {
        "spans": len(spans),
        "overhead": "saturation events/s of the traced server against an untraced "
        "server driven with the same seeds in the same run",
    }
    return {
        "metrics": metrics,
        "attempted": traced["n_events"],
        "failed": traced["errors"],
        "record": record,
    }

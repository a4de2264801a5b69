"""Server process control, the closed-loop load generator, statistics.

The server is the product's own CLI (``python -m repro.cli serve``)
in a process of its own; a traced run starts it through
``tracedserve.py`` instead.  The load generator runs ``CLIENTS``
threads in this process, each holding one keep-alive HTTP connection
and sending its next request only after the previous reply arrived
(a closed loop).  A mix of request classes runs in lock-step
(:class:`LockStep`): the clients send requests of the same class at
the same moment.  :class:`Probe` runs ``probe.py`` beside a run, and
:class:`HostSpeed` scales the run's timings to one host speed.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: closed-loop clients (one keep-alive connection each)
CLIENTS = 2
#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10
#: whole rounds of a lock-step mix in one measured window
MIN_ROUNDS = 2


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


# -- statistics -------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the median when there are too
    few samples for any higher one)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- the server process -----------------------------------------------------


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM the child if this process dies first
    (Linux ``PR_SET_PDEATHSIG``), so no server outlives the run."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):  # pragma: no cover - non-linux
        pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(command: list[str], timeout: float) -> str:
    """Run ``command`` (a benchmark helper) to completion; its stdout.

    The child gets the same environment and parent-death signal as the
    server, and is killed and waited for if it overruns ``timeout``.
    """
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child_env(), cwd=str(ROOT),
        preexec_fn=_die_with_parent)
    try:
        out, err = process.communicate(timeout=timeout)
    except BaseException:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{command[1]} failed ({process.returncode}): "
                           f"{err[-2000:]}")
    return out


class Server:
    """``mhxq serve`` over one store directory, in its own process."""

    def __init__(self, store: Path, *, spans: Path | None = None) -> None:
        serve = ["serve", "--root", str(store), "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "tracedserve.py"),
                       str(spans), *serve]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=child_env(), cwd=str(ROOT),
            preexec_fn=_die_with_parent)
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} "
                               f"{self.process.stderr.read()[-2000:]}")
        # serving on http://HOST:PORT (N documents, M corpora, K workers)
        words = line.split()
        host, port = words[2][len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)
        #: the server's execution slots (its ``max_inflight``)
        self.workers = int(words[-2])

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, payload = self.get("/healthz")
                if status == 200 and payload.get("status") == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=120)
        try:
            connection.request("GET", path)
            reply = connection.getresponse()
            return reply.status, json.loads(reply.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set."""
        return process_peak_rss_mb(self.process.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain (SIGTERM), then wait for the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def process_peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``), in MB."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# -- the host's speed -------------------------------------------------------

#: the probe cost (CPU ns of ``probe.work``) timings are scaled to: about
#: what it takes on a 2-vCPU cloud host in its fast spells
REFERENCE_NS = 1_000_000
#: a timing shorter than this is scaled by the probe's median cost over
#: this much time around its middle (about ten of the probe's timings):
#: the host's speed moves within a second, and a wider span follows it
#: less closely
NEAR_NS = 250_000_000


class Probe:
    """``probe.py`` in a process of its own, for the length of a run."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(ROOT), preexec_fn=_die_with_parent)

    def stop(self) -> "HostSpeed":
        """Stop the probe and wait for it; the host's speed over the
        probe's life."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, err = self.process.communicate(timeout=30)
        except BaseException:
            self.process.kill()
            self.process.communicate()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"probe failed: {err[-2000:]}")
        return HostSpeed(json.loads(out))


class HostSpeed:
    """The probe's timings, to scale a run's timings to one host speed.

    On a shared host the same work takes up to about 1.6 times as long
    in a slow spell as in a fast one, and the spells last from seconds
    to minutes, longer than a run: a median over a run moves with them
    whatever the run's length.  So every timing ``t`` of ``begin`` to
    ``end`` is reported as ``t * REFERENCE_NS / c``, where ``c`` is the
    median CPU cost of the probe's work over that time (at least
    ``NEAR_NS`` of it): how long it would have taken on a host on
    which the probe's work costs ``REFERENCE_NS``.  The host's speed is
    the probe's alone; nothing of the program under test enters it, so
    a program that does more or less work still shows it in full.  The
    unscaled figures are printed beside the scaled ones.
    """

    def __init__(self, points: list[list[int]]) -> None:
        points = sorted(points)
        self.starts = [at for at, _cost in points]
        self.costs = [cost for _at, cost in points]
        if not points:
            raise RuntimeError("the probe made no timing")

    def cost(self, begin_ns: int, end_ns: int) -> float:
        """Median probe cost (ns) over ``begin_ns``..``end_ns``, widened
        to ``NEAR_NS`` around its middle when shorter."""
        middle = (begin_ns + end_ns) // 2
        half = max((end_ns - begin_ns) // 2, NEAR_NS // 2)
        low = bisect.bisect_left(self.starts, middle - half)
        high = bisect.bisect_right(self.starts, middle + half)
        if high == low:
            raise RuntimeError("no probe timing near a measured time")
        return median(self.costs[low:high])

    def scale(self, begin_ns: int, end_ns: int) -> float:
        """The factor that takes a timing of ``begin_ns``..``end_ns`` to
        the reference speed."""
        return REFERENCE_NS / self.cost(begin_ns, end_ns)

    def median_ms(self) -> float:
        return median(self.costs) / 1e6


# -- the load generator -----------------------------------------------------


@dataclass
class Request:
    """One request of a mix: its class, the HTTP call and its check."""

    kind: str
    method: str
    path: str
    params: dict
    body: dict | None = None
    #: key of the expected answer (see the workload's ``expected``)
    key: object = None


@dataclass
class Sample:
    kind: str
    rid: str
    begin_ns: int
    end_ns: int
    status: int
    payload: dict | None
    error: str = ""
    request: Request | None = None
    #: set by the workload's check when the answer is wrong
    wrong: bool = False

    @property
    def ms(self) -> float:
        return (self.end_ns - self.begin_ns) / 1e6

    @property
    def at_ns(self) -> int:
        """The middle of the request: the time it is filed under."""
        return (self.begin_ns + self.end_ns) // 2


@dataclass
class Client:
    """One closed-loop client: sends ``next_request(i)`` for i = 0, 1,
    … until the deadline, waiting for each reply and then ``pause``
    times as long as the reply took; or, in lock-step,
    ``next_request(kind)`` for the class of each step."""

    name: str
    host: str
    port: int
    #: ``next_request(i)`` → the client's i-th :class:`Request` (in
    #: lock-step: ``next_request(kind)``)
    next_request: object
    samples: list[Sample] = field(default_factory=list)
    #: pause after each reply before the next request, as a multiple of
    #: that reply's latency
    pause: float = 0.0

    def exchange(self, connection, request: Request,
                 rid: str) -> Sample:
        path = request.path
        if request.params:
            path += "?" + urlencode(request.params)
        body = (json.dumps(request.body).encode("utf-8")
                if request.body is not None else None)
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        begin = time.perf_counter_ns()
        try:
            connection.request(request.method, path, body=body,
                               headers=headers)
            reply = connection.getresponse()
            data = reply.read()
            end = time.perf_counter_ns()
        except (OSError, http.client.HTTPException) as error:
            return Sample(request.kind, rid, begin,
                          time.perf_counter_ns(), 0, None,
                          f"{type(error).__name__}: {error}", request)
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        return Sample(request.kind, rid, begin, end, reply.status,
                      payload, request=request)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=120)

    def send(self, connection, request: Request, index: int):
        """Send the client's ``index``-th request and record its sample;
        returns the connection to go on with (a new one after an
        error)."""
        sample = self.exchange(connection, request,
                               f"{self.name}-{index}-{request.kind}")
        self.samples.append(sample)
        if sample.error:
            connection.close()
            connection = self.connect()
        return connection

    def run(self, deadline: float, count: int | None = None) -> None:
        """Loop until ``deadline`` (monotonic) or ``count`` requests."""
        connection = self.connect()
        try:
            index = 0
            while (time.monotonic() < deadline if count is None
                   else index < count):
                connection = self.send(connection,
                                       self.next_request(index), index)
                index += 1
                if self.pause:
                    time.sleep(max(0.0, min(
                        self.pause * self.samples[-1].ms / 1e3,
                        deadline - time.monotonic())))
        finally:
            connection.close()

    def run_count(self, count: int) -> None:
        self.run(0.0, count)

    def run_lockstep(self, lockstep: "LockStep") -> None:
        """Send one request of the current step's class, wait for the
        other clients, repeat until the rounds stop."""
        connection = self.connect()
        try:
            index = 0
            while not lockstep.stopped:
                connection = self.send(
                    connection, self.next_request(lockstep.current()),
                    index)
                index += 1
                lockstep.barrier.wait()
        except BaseException:
            lockstep.barrier.abort()  # the other clients stop too
            raise
        finally:
            connection.close()


def interleave(schedule: list[tuple[str, int]]) -> list[str]:
    """One round of ``schedule`` (``(kind, count)`` pairs): each kind
    ``count`` times, spread evenly (smooth weighted round robin)."""
    total = sum(count for _kind, count in schedule)
    credit = {kind: 0 for kind, _count in schedule}
    order = []
    for _ in range(total):
        for kind, count in schedule:
            credit[kind] += count
        chosen = max(credit, key=credit.get)
        credit[chosen] -= total
        order.append(chosen)
    return order


class LockStep:
    """A mix run in lock-step rounds.

    In each step every client sends one request of the step's class at
    the same moment, and the step ends with the last reply.  A round
    is :func:`interleave` of ``schedule``.  Rounds repeat until the one
    that ends nearest the deadline (``MIN_ROUNDS`` at least).  So every
    request runs beside requests of its own class started with it; the
    classes take turns step by step, so each samples the host's speed
    all through the run; and each class's share of the requests is
    fixed by the counts, not by random draws or by where the deadline
    falls.
    """

    def __init__(self, schedule: list[tuple[str, int]],
                 clients: int) -> None:
        self.steps = interleave(schedule)
        self.step = 0
        self.rounds = 0
        self.stopped = False
        self.barrier = threading.Barrier(clients, action=self._turn)

    def start(self, seconds: float) -> None:
        self._round_begin = time.perf_counter()
        self.deadline = self._round_begin + seconds

    def current(self) -> str:
        return self.steps[self.step]

    def _turn(self) -> None:
        """Barrier action (one thread, all others waiting): next step;
        at a round's end, stop or go on."""
        self.step += 1
        if self.step < len(self.steps):
            return
        now = time.perf_counter()
        self.step = 0
        self.rounds += 1
        half_round = (now - self._round_begin) / 2
        self._round_begin = now
        self.stopped = (self.rounds >= MIN_ROUNDS
                        and now + half_round >= self.deadline)


def drive(clients: list[Client], seconds: float,
          lockstep: LockStep | None = None) -> float:
    """Run every client's closed loop for ``seconds`` (in ``lockstep``,
    when given); return the measured wall time (to the last reply)."""
    deadline = time.monotonic() + seconds
    begin = time.perf_counter()
    if lockstep:
        lockstep.start(seconds)
    threads = [threading.Thread(
        target=client.run_lockstep if lockstep else client.run,
        args=(lockstep,) if lockstep else (deadline,),
        name=client.name, daemon=True) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - begin

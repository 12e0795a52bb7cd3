"""An open-loop HTTP load generator over at most a fixed number of connections.

Requests are due on a schedule fixed in advance.  Each one is sent on
its own connection (the server speaks HTTP/1.0 and closes after every
answer); when every connection is busy, the request waits for one.
Latency is timed from the request's *due* time, so a stall counts
against every request queued behind it, and the generator records how
late it started each request relative to the schedule.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Request:
    path: str
    endpoint: str
    due_s: float


@dataclass
class Answer:
    request: Request
    status: int | None
    body: bytes
    latency_s: float
    late_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


def uniform_schedule(rate: float, duration_s: float) -> list[float]:
    """Due times of a fixed-rate stream: one request every ``1 / rate`` seconds."""
    n = max(1, int(round(rate * duration_s)))
    return [i / rate for i in range(n)]


async def _fetch(host: str, port: int, request: Request, timeout_s: float) -> tuple[int, bytes]:
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout_s)
    try:
        writer.write(
            f"GET {request.path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        raw = await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2:
        raise ConnectionError(f"malformed response {raw[:80]!r}")
    return int(status_line[1]), body


async def _drive(
    host: str, port: int, requests: list[Request], connections: int, timeout_s: float
) -> list[Answer]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(connections)
    start = loop.time() + 0.02

    async def one(request: Request, late_s: float) -> Answer:
        due = start + request.due_s
        async with slots:
            try:
                status, body = await _fetch(host, port, request, timeout_s)
            except (OSError, asyncio.TimeoutError, ConnectionError, ValueError) as exc:
                return Answer(request, None, b"", loop.time() - due, late_s, repr(exc))
        return Answer(request, status, body, loop.time() - due, late_s)

    tasks = []
    for request in requests:
        delay = start + request.due_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late_s = max(0.0, loop.time() - (start + request.due_s))
        tasks.append(asyncio.create_task(one(request, late_s)))
    return list(await asyncio.gather(*tasks))


def send(
    host: str, port: int, requests: list[Request], connections: int, timeout_s: float = 10.0
) -> list[Answer]:
    """Send ``requests`` on their schedule; return every answer, in order."""
    return asyncio.run(_drive(host, port, requests, connections, timeout_s))


def closed_loop_rate(
    host: str, port: int, requests: list[Request], connections: int, timeout_s: float = 10.0
) -> tuple[float, list[Answer]]:
    """Completed requests per second with ``connections`` clients back to back."""
    burst = [Request(r.path, r.endpoint, 0.0) for r in requests]

    async def run() -> tuple[float, list[Answer]]:
        loop = asyncio.get_running_loop()
        started = loop.time()
        answers = await _drive(host, port, burst, connections, timeout_s)
        return len(answers) / (loop.time() - started), answers

    return asyncio.run(run())


def listen_queue_counters() -> dict[str, int]:
    """``TcpExt`` ``ListenOverflows`` and ``ListenDrops`` from ``/proc/net/netstat``."""
    lines = Path("/proc/net/netstat").read_text().splitlines()
    for names, values in zip(lines[::2], lines[1::2]):
        if names.startswith("TcpExt:"):
            table = dict(zip(names.split()[1:], (int(v) for v in values.split()[1:])))
            return {
                "overflows": table.get("ListenOverflows", 0),
                "drops": table.get("ListenDrops", 0),
            }
    return {"overflows": 0, "drops": 0}

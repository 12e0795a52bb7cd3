"""The ``serve`` workload: availability queries over HTTP, open loop.

Preparation (untimed): ``collect --columnar`` writes the stores and
``run fig15 --json`` over them gives the batch reference.  Then
``repro-mastodon serve C --graph G --warm`` is started ``SETUP_REPEATS``
times (spawn → first 200 from ``/health`` is ``setup_s``); the last
server takes the load:

* a fixed schedule at 150 req/s, then at 400 req/s;
* a capacity search: the closed-loop rate ``X`` over the same
  connections, then open-loop steps at falling fractions of ``X`` until
  one meets the limit (p99 ≤ 50 ms, no failed request, no backlog left
  at the end of the step).

At most ``nproc`` connections are open at once.  Larger client counts
(the 32-client collapse seen with a thread per client) are outside this
benchmark's load limits.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import loadgen
from common import (
    SETUP_REPEATS,
    Metric,
    Outcome,
    cli_command,
    median,
    percentile,
    process_layers,
    program_env,
    read_json,
    run_program,
    traced_command,
    ROOT,
)

LATENCY_LIMIT_MS = 50.0
CAPACITY_FRACTIONS = (0.97, 0.94, 0.91, 0.88, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5)
#: Mix of request kinds (share of requests).
MIX = (("user", 0.60), ("timeline", 0.20), ("instance", 0.15), ("best_placement", 0.05))
ZIPF_EXPONENT = 0.8
STRATEGIES = ("no-rep", "s-rep")


@dataclass(frozen=True)
class Plan:
    """Durations of the load steps, in seconds."""

    fixed: tuple[tuple[float, float], ...]  # (req/s, seconds) per fixed-rate step
    saturate_requests: int
    capacity_step_s: float

    @classmethod
    def for_seconds(cls, seconds: float) -> "Plan":
        """Split a run's measuring time: 30 s gives 1575 + 1800 fixed-rate requests."""
        return cls(
            fixed=((150.0, 0.35 * seconds), (400.0, 0.15 * seconds)),
            saturate_requests=max(50, int(60 * seconds)),
            capacity_step_s=0.05 * seconds,
        )


# -- the request stream ------------------------------------------------------


class RequestStream:
    """Seeded requests: Zipf-skewed users from the corpus authors.

    The seed shuffles the authors into popularity ranks and draws every
    request.
    """

    def __init__(self, corpus_dir: Path, seed: int) -> None:
        from repro.corpus import CorpusStore

        store = CorpusStore(corpus_dir, mmap=True)
        self.rng = random.Random(seed)
        self.users = sorted(str(a) for a in store.authors.tolist())
        self.rng.shuffle(self.users)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.users))]
        self.cum_user_weights = _cumulative(weights)
        self.instances = sorted(d for d, n in store.home_toot_counts.items() if n > 0)
        self.kinds = [kind for kind, _ in MIX]
        self.cum_kind_weights = _cumulative([share for _, share in MIX])

    def _user(self) -> str:
        return self.rng.choices(self.users, cum_weights=self.cum_user_weights)[0]

    def draw(self) -> tuple[str, str]:
        """One ``(path, endpoint)``."""
        kind = self.rng.choices(self.kinds, cum_weights=self.cum_kind_weights)[0]
        k = self.rng.randint(0, 50)
        strategy = self.rng.choice(STRATEGIES)
        if kind == "user":
            return _path("/availability", user=self._user(), strategy=strategy, k=k)
        if kind == "timeline":
            return _path("/timeline", user=self._user(), strategy=strategy, k=k)
        instance = self.rng.choice(self.instances)
        if kind == "instance":
            selector = self.rng.choice(("instance", "held_on"))
            return _path("/availability", **{selector: instance}, strategy=strategy, k=k)
        return _path("/best_placement", home=instance, n_replicas=self.rng.randint(1, 3))

    def requests(self, due_times: list[float]) -> list[loadgen.Request]:
        out = []
        for due in due_times:
            path, endpoint = self.draw()
            out.append(loadgen.Request(path, endpoint, due))
        return out


def _cumulative(weights: list[float]) -> list[float]:
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


def _path(endpoint: str, **params: object) -> tuple[str, str]:
    return endpoint + "?" + urllib.parse.urlencode(params), endpoint


# -- answers -----------------------------------------------------------------


def _params(request: loadgen.Request) -> dict[str, str]:
    return dict(urllib.parse.parse_qsl(urllib.parse.urlsplit(request.path).query))


def echo_problem(answer: loadgen.Answer) -> str | None:
    """Why an answer is not a 200 about the subject it was asked about."""
    if not answer.ok:
        return f"{answer.request.path}: {answer.error or answer.status}"
    try:
        payload = json.loads(answer.body)
    except ValueError:
        return f"{answer.request.path}: body is not JSON"
    params = _params(answer.request)
    for key in ("user", "instance", "held_on", "home", "strategy"):
        if key in params and payload.get(key) != params[key]:
            return f"{answer.request.path}: answered {key}={payload.get(key)!r}"
    if "k" in params and payload.get("k") != int(params["k"]):
        return f"{answer.request.path}: answered k={payload.get('k')!r}"
    return None


class Reference:
    """The same queries answered in-process over the same stores."""

    def __init__(self, corpus_dir: Path, graph_dir: Path) -> None:
        from repro.serve import AvailabilityService

        self.service = AvailabilityService(corpus_dir, graph_dir)

    def problem(self, answer: loadgen.Answer) -> str | None:
        from repro.serve import handle_query

        verb = answer.request.endpoint.lstrip("/")
        expected = json.loads(json.dumps(handle_query(self.service, verb, _params(answer.request))))
        if json.loads(answer.body) != expected:
            return f"{answer.request.path}: served answer differs from the in-process service"
        return None


# -- the server --------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro-mastodon serve`` process."""

    def __init__(self, argv: list[str], log: Path, port: int) -> None:
        self.port = port
        self.base = f"http://127.0.0.1:{port}"
        self.log = log
        self.spawned_at = time.time()
        self.reaped_at = float("nan")
        self.started = time.perf_counter()
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(
                argv, stdout=sink, stderr=subprocess.STDOUT, env=program_env(), cwd=ROOT
            )

    def wait_healthy(self, timeout_s: float = 120.0) -> float | None:
        """Seconds from spawn to the first 200 from ``/health``, or None."""
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                return None
            try:
                with urllib.request.urlopen(self.base + "/health", timeout=2) as response:
                    if response.status == 200:
                        return time.perf_counter() - self.started
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.005)
        return None

    def get_text(self, path: str) -> str:
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return response.read().decode()

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> int:
        """Interrupt the server (it exits cleanly on SIGINT) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.reaped_at = time.time()
        return self.proc.returncode


_BUCKET = re.compile(
    r'^repro_serve_request_seconds_bucket\{endpoint="([^"]+)",le="([^"]+)"\} (\S+)$'
)
_SUM = re.compile(r'^repro_serve_request_seconds_sum\{endpoint="([^"]+)"\} (\S+)$')


def handler_histograms(text: str) -> dict[str, tuple[list[tuple[float, float]], float]]:
    """Per endpoint: cumulative ``(upper bound, count)`` buckets and the sum."""
    out: dict[str, tuple[list[tuple[float, float]], float]] = {}
    for line in text.splitlines():
        if m := _BUCKET.match(line):
            bound = float("inf") if m.group(2) == "+Inf" else float(m.group(2))
            out.setdefault(m.group(1), ([], 0.0))[0].append((bound, float(m.group(3))))
        elif m := _SUM.match(line):
            buckets = out.setdefault(m.group(1), ([], 0.0))[0]
            out[m.group(1)] = (buckets, float(m.group(2)))
    return out


def _hist_delta(before, after, endpoint):
    b_buckets, b_sum = before.get(endpoint, ([], 0.0))
    a_buckets, a_sum = after.get(endpoint, ([], 0.0))
    b_counts = dict(b_buckets)
    return [(bound, count - b_counts.get(bound, 0.0)) for bound, count in a_buckets], a_sum - b_sum


def hist_quantile_ms(buckets: list[tuple[float, float]], q: float) -> float:
    """Quantile from cumulative power-of-two buckets, interpolated within a bucket."""
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    target = q * total
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= target:
            if bound == float("inf"):
                return lower_bound * 1000.0
            share = (target - lower_count) / (count - lower_count) if count > lower_count else 1.0
            return 1000.0 * (lower_bound + (bound - lower_bound) * share)
        lower_bound, lower_count = bound, count
    return lower_bound * 1000.0


# -- the workload ------------------------------------------------------------


@dataclass
class Step:
    name: str
    answers: list[loadgen.Answer]
    wall_s: float
    listen: dict[str, int]

    @property
    def latencies_ms(self) -> list[float]:
        return [1000.0 * a.latency_s for a in self.answers]

    @property
    def failures(self) -> int:
        return sum(1 for a in self.answers if not a.ok)

    def meets_limit(self) -> bool:
        if self.failures:
            return False
        if percentile(self.latencies_ms, 99) > LATENCY_LIMIT_MS:
            return False
        # no backlog: the step's last tenth is still answered within the limit
        tail = self.latencies_ms[-max(1, len(self.answers) // 10):]
        return median(tail) <= LATENCY_LIMIT_MS


def _run_step(server: Server, stream: RequestStream, name: str, due: list[float],
              connections: int) -> Step:
    requests = stream.requests(due)
    before = loadgen.listen_queue_counters()
    started = time.perf_counter()
    answers = loadgen.send("127.0.0.1", server.port, requests, connections)
    wall = time.perf_counter() - started
    after = loadgen.listen_queue_counters()
    listen = {k: after[k] - before[k] for k in after}
    return Step(name, answers, wall, listen)


def serve(work: Path, seed: int, seconds: float, trace: bool, preset: str) -> Outcome:
    out = Outcome()
    plan = Plan.for_seconds(seconds)
    corpus, graph, json_dir = work / "corpus", work / "graph", work / "fig15"
    scenario = ["--preset", preset, "--seed", str(seed)]
    collect = run_program(
        cli_command("collect", "--columnar", "--corpus", str(corpus), "--graph", str(graph), *scenario),
        work / "collect.log",
    )
    if not out.op("prepare", collect.ok, f"collect exited {collect.returncode}: {collect.tail(500)}"):
        return out
    batch = run_program(
        cli_command("run", "fig15", *scenario, "--corpus", str(corpus),
                    "--graph", str(graph), "--json", str(json_dir)),
        work / "fig15.log",
    )
    if not out.op("prepare", batch.ok, f"run fig15 exited {batch.returncode}: {batch.tail(500)}"):
        return out
    fig15 = read_json(json_dir / "fig15.json")["scalars"]
    stream = RequestStream(corpus, seed)
    connections = os.cpu_count() or 1

    serve_args = ["serve", str(corpus), "--graph", str(graph), "--warm"]
    layers_file = work / "serve.layers.json"
    setup: list[float] = []
    servers: list[Server] = []

    def start(argv: list[str], tag: str) -> tuple[Server, float | None]:
        port = _free_port()
        server = Server([*argv, "--port", str(port)], work / f"{tag}.log", port)
        servers.append(server)
        ready = server.wait_healthy()
        out.op("startup", ready is not None, f"{tag} did not become healthy: {server.log.read_text()[-500:]}")
        return server, ready

    try:
        for i in range(SETUP_REPEATS):
            server, ready = start(cli_command(*serve_args), f"serve-{i}")
            if ready is not None:
                setup.append(ready)
            if i < SETUP_REPEATS - 1 or trace:
                server.stop()
        traced_setup = None
        if trace:
            server, traced_setup = start(traced_command(layers_file, *serve_args), "serve-traced")
        if not setup or (trace and traced_setup is None):
            return out
        setup_peak = server.peak_rss_mib()

        # let lazy indexes fill before timing: one request of every kind
        for answer in loadgen.send("127.0.0.1", server.port, stream.requests([0.0] * 8), 1):
            out.op("echo", echo_problem(answer) is None, echo_problem(answer) or "")
        for strategy, scalar in (("no-rep", "no_rep_top10_instances_by_toots"),
                                 ("s-rep", "s_rep_top10_instances_by_toots")):
            query = urllib.parse.urlencode(
                {"strategy": strategy, "failure": "instances/by_toots", "k": 10})
            got = json.loads(server.get_text(f"/availability?{query}"))["availability"]
            out.op("corpus_scope", got == fig15[scalar],
                   f"corpus-scope {strategy} k=10: serve {got!r} != batch {fig15[scalar]!r}")

        steps: list[Step] = []
        metrics_before = handler_histograms(server.get_text("/metrics"))
        for rate, duration in plan.fixed:
            steps.append(_run_step(server, stream, f"r{int(rate)}",
                                   loadgen.uniform_schedule(rate, duration), connections))
        metrics_after = handler_histograms(server.get_text("/metrics"))
        fixed_peak = server.peak_rss_mib()

        saturation, saturation_answers = loadgen.closed_loop_rate(
            "127.0.0.1", server.port, stream.requests([0.0] * plan.saturate_requests), connections)
        capacity_steps: list[Step] = []
        for fraction in CAPACITY_FRACTIONS:
            rate = fraction * saturation
            step = _run_step(server, stream, f"cap{fraction}",
                             loadgen.uniform_schedule(rate, plan.capacity_step_s), connections)
            capacity_steps.append(step)
            if step.meets_limit():
                break
        stats = json.loads(server.get_text("/stats"))
        server_peak = server.peak_rss_mib()
        code = server.stop()
        out.op("exit", code in (0, -signal.SIGINT), f"serve exited {code}")
    finally:
        for running in servers:
            running.stop()

    # -- checks: every answer echoes its subject; a seeded sample matches
    answers = [a for s in steps + capacity_steps for a in s.answers] + saturation_answers
    for answer in answers:
        problem = echo_problem(answer)
        out.op("echo", problem is None, problem or "")
    reference = Reference(corpus, graph)
    ok_answers = [a for a in answers if a.ok]
    for answer in random.Random(seed).sample(ok_answers, min(200, len(ok_answers))):
        problem = reference.problem(answer)
        out.op("reference", problem is None, problem or "")

    # -- end-to-end metrics
    lowest = steps[0].latencies_ms
    passing = [s for s in capacity_steps if s.meets_limit()]
    out.e2e["setup_s"] = Metric(median(setup), "s", len(setup))
    out.e2e["latency_p50_ms"] = Metric(median(lowest), "ms", len(lowest))
    out.e2e["peak_rss_mib"] = Metric(server_peak, "MiB", 1)
    out.notes.append("one operation = one request; latency from its due time at 150 req/s")
    for s in steps:
        lat = s.latencies_ms
        out.extra[f"serve_p50_ms.{s.name}"] = Metric(median(lat), "ms", len(lat))
        out.extra[f"serve_p99_ms.{s.name}"] = Metric(percentile(lat, 99), "ms", len(lat))
    out.extra["serve_capacity_rps"] = Metric(
        len(passing[-1].answers) / passing[-1].wall_s if passing else 0.0, "1/s",
        len(passing[-1].answers) if passing else 0)
    out.extra["serve_saturation_rps"] = Metric(saturation, "1/s", len(saturation_answers))
    out.extra["serve_setup_peak_rss_mib"] = Metric(setup_peak, "MiB", 1)
    out.extra["serve_fixed_rate_peak_rss_mib"] = Metric(fixed_peak, "MiB", 1)

    if trace:
        layers = process_layers(read_json(layers_file), server) if layers_file.exists() else {}
        _serve_layers(out, layers, steps, capacity_steps, stats, metrics_before, metrics_after,
                      traced_setup, median(setup))
    shutil.rmtree(json_dir, ignore_errors=True)
    return out


#: The layers that run between the server's spawn and its first 200 from
#: ``/health``: the traced start-up they account for is its coverage.
SETUP_LAYERS = ("cli.startup_s", "serve.setup_self_s", "corpus.open_s",
                "engine.placement_s", "engine.sweep_s")


def _serve_layers(out: Outcome, layers: dict[str, float], steps: list[Step],
                  capacity_steps: list[Step], stats: dict, before, after,
                  traced_setup_s: float, setup_s: float) -> None:
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "MiB" if name.endswith("_mib") else "count"
        out.layers[name] = Metric(value, unit, 1)
    out.layers["trace.coverage"] = Metric(
        sum(layers.get(name, 0.0) for name in SETUP_LAYERS) / traced_setup_s, "ratio", 1)
    out.layers["trace.overhead_s"] = Metric(traced_setup_s - setup_s, "s", 1)
    build = stats["metrics"]["histograms"]
    out.layers["serve.build_s"] = Metric(
        sum(h["sum"] for key, h in build.items() if key.startswith("repro_serve_build_seconds")),
        "s", 1)
    fixed_answers = [a for s in steps for a in s.answers]
    wall = sum(s.wall_s for s in steps)
    handler_total = 0.0
    handler_count = 0.0
    for endpoint in ("/availability", "/timeline", "/best_placement"):
        buckets, total = _hist_delta(before, after, endpoint)
        label = endpoint.lstrip("/")
        out.layers[f"serve.handler_ms_p50.{label}"] = Metric(hist_quantile_ms(buckets, 0.50), "ms", int(buckets[-1][1]) if buckets else 0)
        out.layers[f"serve.handler_ms_p99.{label}"] = Metric(hist_quantile_ms(buckets, 0.99), "ms", int(buckets[-1][1]) if buckets else 0)
        handler_total += total
        handler_count += buckets[-1][1] if buckets else 0.0
    client_mean_ms = 1000.0 * sum(a.latency_s for a in fixed_answers) / len(fixed_answers)
    handler_mean_ms = 1000.0 * handler_total / handler_count if handler_count else 0.0
    out.layers["serve.wait_ms"] = Metric(client_mean_ms - handler_mean_ms, "ms", len(fixed_answers))
    out.layers["serve.handler_busy_frac"] = Metric(handler_total / wall, "ratio", len(fixed_answers))
    every = steps + capacity_steps
    out.layers["serve.http_errors"] = Metric(sum(s.failures for s in every), "count", sum(len(s.answers) for s in every))
    late = [1000.0 * a.late_s for a in fixed_answers]
    out.layers["serve.gen_late_ms_p99"] = Metric(percentile(late, 99), "ms", len(late))
    for s in steps:
        out.layers[f"serve.listen_overflows.{s.name}"] = Metric(s.listen["overflows"], "count", 1)
        out.layers[f"serve.listen_drops.{s.name}"] = Metric(s.listen["drops"], "count", 1)
        out.layers[f"serve.p99_ms.{s.name}"] = out.extra[f"serve_p99_ms.{s.name}"]
    out.layers["serve.listen_overflows.capacity"] = Metric(
        sum(s.listen["overflows"] for s in capacity_steps), "count", len(capacity_steps))
    out.layers["serve.capacity_rps"] = out.extra["serve_capacity_rps"]
    out.layers["serve.saturation_rps"] = out.extra["serve_saturation_rps"]

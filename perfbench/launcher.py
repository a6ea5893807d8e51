"""The benchmark's server process for the two wire workloads.

The benchmark starts it with ``python3 perfbench/launcher.py`` and
talks to it over standard input and output:

1. one JSON line in: ``repeats``, ``trace``, ``data_dir``, ``spans``
   and the ``warmup`` statements;
2. it sets up ``repeats`` times, each time anew (build, bind,
   induce; attach storage and store the rules when there is a data
   dir; start the server; the warm-up statements through the server's
   own socket), keeps the last server and prints
   ``PERFBENCH READY {"port": ..., "setup_s": [...]}``;
3. on ``stop`` (or end of input) it drains and stops the server, then
   prints ``PERFBENCH DONE {...}``: peak RSS, a digest of every
   relation the live server ended with, and the span file.

With ``trace`` the tracer's engine-side wrappers are installed before
set-up, the engine lock is wrapped in a timing lock, and observability
is enabled once set-up is done; the spans are written to ``spans`` at
shutdown.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parents[1] / "src")]

from repro import obs  # noqa: E402
from repro.server.client import Client  # noqa: E402
from repro.server.server import IntensionalQueryServer  # noqa: E402

from perfbench import inputs, program  # noqa: E402
from perfbench.program import peak_rss_mb  # noqa: E402
from perfbench.tracer import ENGINE_TARGETS, Tracer  # noqa: E402


def emit(tag: str, payload: dict) -> None:
    print(f"PERFBENCH {tag} {json.dumps(payload)}", flush=True)


def warm_up_over_wire(port: int, warmup) -> None:
    with Client("127.0.0.1", port, timeout_s=60.0) as client:
        for kind, sql in warmup:
            if kind == "ask":
                client.ask(sql)
            else:
                client.sql(sql)


def main() -> int:
    config = json.loads(sys.stdin.readline())
    data_dir = config["data_dir"]
    tracer = Tracer() if config["trace"] else None
    if tracer is not None:
        tracer.install(ENGINE_TARGETS)

    def make():
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
        system = program.build_system(data_dir)
        server = IntensionalQueryServer(system)
        if tracer is not None:
            server.engine_lock = tracer.timed_lock(server.engine_lock)
        server.start()
        warm_up_over_wire(server.port, config["warmup"])
        return system, server

    def discard(pair):
        system, server = pair
        server.shutdown()
        if system.database.storage is not None:
            system.database.storage.detach()

    setup_s, (system, server) = program.timed_setups(
        config["repeats"], make, discard)
    if tracer is not None:
        obs.enable()
    emit("READY", {"port": server.port, "setup_s": setup_s})
    sys.stdin.readline()  # "stop", or end of input if the benchmark died
    server.shutdown()
    obs.disable()
    report = {"rss_mb": peak_rss_mb(),
              "relations": inputs.relation_digests(system.database),
              "spans": None}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(config["spans"])
        report["spans"] = config["spans"]
    if system.database.storage is not None:
        system.database.storage.detach()
    emit("DONE", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro serve --port 0`` with the benchmark's layer tracer installed.

serve-zipf's traced run starts its server through this script instead of
``python3 -m repro serve``.  The script wraps the layers from outside, as
``perfbench/tracer.py`` does in-process, serves until a ``shutdown``
request, and then prints one JSON line after the ``serving on`` line: the
tracer's totals and the CPU time the process spent after start-up.  The
server is single-threaded with one job, so that CPU time is the time it
spent serving.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.cli import main  # noqa: E402

from perfbench.tracer import Patcher, Tracer, install, install_server  # noqa: E402


def run() -> int:
    # The server's modules first, so that install() also patches the
    # names they imported.
    importlib.import_module("repro.server.server")
    tracer, patcher = Tracer(), Patcher()
    install(tracer, patcher)
    install_server(tracer, patcher)
    started = time.process_time()
    code = main(["serve", "--port", "0"])
    cpu_s = time.process_time() - started
    print(json.dumps({"cpu_s": cpu_s, "tracer": tracer.as_dict()}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(run())

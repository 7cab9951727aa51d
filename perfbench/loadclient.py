"""The ``serve_mixed`` load generator, in an interpreter of its own.

    python3 perfbench/loadclient.py --seed 3 --host 127.0.0.1 --port 8000

The ``serve_mixed`` repetition starts it during set-up, so the client
threads never wait on the server's interpreter lock and the round trips
time the cluster rather than lock hand-offs.  It builds the request
stream, prints ``ready``, waits for a line on standard input, drives the
closed loop and prints its record as one JSON line: wall time, cold-pass
time, round-trip latencies, failed round trips, and the contract served
for every fingerprint.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def served_contracts(replies: List[Any]) -> Tuple[Dict[str, List[str]], int]:
    """``(served, conflicts)``: the pay vector (``float.hex``) served per
    fingerprint, and how many replies disagreed with an earlier one."""
    served: Dict[str, List[str]] = {}
    conflicts = 0
    for reply in replies:
        for design in reply:
            pay = [float(value).hex() for value in design["compensations"]]
            if served.setdefault(design["fingerprint"], pay) != pay:
                conflicts += 1
    return served, conflicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.serving.loadgen import http_target

    _, cold_pass, stream = workloads.serve_phases(args.seed)
    send = http_target(args.host, args.port)
    print("ready", flush=True)
    if not sys.stdin.readline():
        return 0  # the server closed our input: set-up only, or it failed

    stamps: List[float] = []
    started = time.perf_counter()
    latencies, replies, failed = workloads.closed_loop(
        send, [cold_pass, stream], lambda: stamps.append(time.perf_counter())
    )
    finished = time.perf_counter()
    served, conflicts = served_contracts(replies)
    print(json.dumps({
        "wall_s": finished - started,
        "cold_s": stamps[0] - started,
        "cold_latencies_s": latencies[0],
        "latencies_s": latencies[1],
        "failed": failed,
        "served": served,
        "conflicts": conflicts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

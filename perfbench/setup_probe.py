"""Set-up probe: do what ``repro join`` does before routing a record.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD TOKEN_FILE WINDOW``

Starts the interpreter, imports the CLI module (what ``python -m repro``
imports), loads the token file and plans the routing (``plan_shards``
for the parallel runtime, ``DistributedStreamJoin.plan`` for the
simulated cluster), then exits. The benchmark times this process from
spawn to exit as ``setup_s``.
"""

import sys
from dataclasses import replace

import repro.cli  # noqa: F401  (the import cost a run pays)
from repro.datasets.loader import load_token_file

from workloads import WORKLOADS


def main(argv):
    workload = replace(WORKLOADS[argv[0]], window=float(argv[2]))
    stream, _dictionary = load_token_file(argv[1])
    config = workload.config()
    if workload.parallel:
        from repro.parallel.planner import plan_shards

        plan_shards(config, stream.corpus)
    else:
        from repro.core.join import DistributedStreamJoin

        DistributedStreamJoin(config).plan(stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

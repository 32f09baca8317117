"""Child process of the benchmark.

    python3 -X importtime perfbench/launcher.py cli ARGS...   # one traced CLI op
    python3 perfbench/launcher.py first-op WORKLOAD SEED      # one set-up probe

``cli`` runs ``cloneforge ARGS`` in this process with the layer tracer
installed. It times the import of ``cloneforge.cli`` and the call to its
``main``, and writes them with the layer record as the last line of stderr,
after the ``-X importtime`` lines. ``first-op`` imports the library, runs the
workload's first op and prints the ``time.monotonic_ns()`` at which it ended.
Both need ``src`` on ``PYTHONPATH``.
"""

import sys
import time

TRACE_PREFIX = "perfbench-trace "


def run_cli(args):
    start = time.perf_counter_ns()
    from cloneforge import cli

    imported = time.perf_counter_ns()
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    code = 0
    try:
        cli.main(args=args, prog_name="cloneforge")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        end = time.perf_counter_ns()
        tracer.uninstall()
    record = tracer.take()
    record.update(import_ns=imported - start, main_ns=end - imported)
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(record), file=sys.stderr)
    return code


def first_op(workload, seed):
    import workloads

    workloads.run_clone_op(next(workloads.STREAMS[workload](int(seed))))
    print(time.monotonic_ns())
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(run_cli(rest) if mode == "cli" else first_op(*rest))

"""Run one `cdrflow` subcommand, as the console script does.

    python3 perfbench/cli_child.py TRACE_OUT ARGS...

TRACE_OUT is `-` for a plain run.  Otherwise the layer wrappers of
`tracing.py` are installed first and the metrics and spans of the run are
written to TRACE_OUT when the command ends.
"""

import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from cdrflow import cli

    if trace_out == "-":
        return cli.main(argv)

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out, tracer.take())


if __name__ == "__main__":
    sys.exit(main())

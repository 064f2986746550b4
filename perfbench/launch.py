"""One ``symwave`` command process, as the ``symwave`` entry point runs it.

    python3 perfbench/launch.py [--trace-out PATH] COMMAND [ARGS...]

With ``--trace-out`` the public functions of every module are wrapped before
the command runs, and the spans are written to PATH when it ends.  Without
it nothing is wrapped and the tracing module is not imported.
"""

import sys

from symwave.cli import main


def run(argv):
    if argv[:1] != ["--trace-out"]:
        return main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tracer.wrap("cli.main", main)(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))

"""Run one diamondgmc CLI command in this fresh process, as ``python -m diamondgmc.cli`` would.

Usage: child.py RESULT_JSON TRACE(0|1) CLI-ARGS...

Writes RESULT_JSON with the CLOCK_MONOTONIC time at which ``diamondgmc.cli``
finished importing (the parent subtracts its launch time to get set-up time)
and, when TRACE is 1, the layer summary of ``spans.Tracer``.  The exit status
is the one ``cli.main`` returns; an escaping exception prints its traceback
and exits 1, exactly as under ``python -m``.
"""

import json
import sys
import time


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import diamondgmc.cli as cli

    result = {"setup_end": time.monotonic()}
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            result["trace"] = tracer.summary()
        with open(result_path, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())

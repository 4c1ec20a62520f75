"""Traced stand-in for ``python -m stieltjes.cli``.

Times the import of ``stieltjes.cli``, installs the layer wrappers of
``tracing.py`` and runs ``stieltjes.cli.main`` on the given arguments, so
stdout carries the CLI's own bytes.  The last stderr line is a JSON record
of the import time and the run's calls, work counts and self time by span.
"""

import json
import sys
import time

t0 = time.perf_counter()
import stieltjes.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        calls, counts, self_s = tracer.end()
        tracer.uninstall()
    print(json.dumps({"import_s": import_s, "calls": calls,
                      "counts": counts, "self_s": self_s}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

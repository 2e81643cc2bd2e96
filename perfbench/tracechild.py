"""One latspace command, traced, in a child process of the benchmark.

Usage: python tracechild.py SPANS_JSON ARG...

Times `import latspace.cli`, wraps the package's public functions with the
benchmark's tracer, runs the command as `python -m latspace ARG...` would,
and writes the import time and the spans to SPANS_JSON.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from latspace import cli

    import_ms = 1000.0 * (time.perf_counter() - start)
    import spans

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        patches.restore()
        record = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": record}, fh)


if __name__ == "__main__":
    sys.exit(main())

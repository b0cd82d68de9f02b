"""heckelift's CLI with spans, for the traced run of cli-cold.

    python3 perfbench/cli_traced.py COMMAND problem.json --json

Behaves as `python -m heckelift.cli` (same report, same exit code), with
heckelift importable from PYTHONPATH.  With BENCH_TRACE=count it counts
QmodZ constructions instead of timing spans.  The span totals go to the
last line of standard error as `BENCH-SPANS <json>`.

Spans: cli.validate (the jsonschema check), cli.handler (the command's
handler, minus the library calls it makes), cli.emit (rendering and
printing the report), and every public library function.
"""

import json
import os
import sys

import jsonschema

import heckelift.cli as cli
import spans


def main() -> int:
    tracer = spans.Tracer()
    if os.environ.get("BENCH_TRACE") == "count":
        tracer.count_qmodz()
    else:
        tracer.install()
        jsonschema.validate = tracer.wrap("cli.validate", jsonschema.validate)
        cli.HANDLERS = {k: tracer.wrap("cli.handler", v) for k, v in cli.HANDLERS.items()}
        cli._emit = tracer.wrap("cli.emit", cli._emit)
    tracer.active = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        print("BENCH-SPANS " + json.dumps(tracer.dump()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

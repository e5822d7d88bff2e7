"""Run one `raag` command with spans installed, for the traced CLI pass.

Usage: python3 bench/clitrace.py <raag arguments>

Behaves like `python -m raag.cli <arguments>` (same output, same exit
code) and adds one last stderr line, MARKER followed by the span summary
as JSON, which the parent process merges across commands.
"""

import json
import sys

import fixtures

MARKER = "BENCH-TRACE "

if __name__ == "__main__":
    sys.path.insert(0, str(fixtures.SRC))
    import raag.cli

    from tracer import Tracer

    tracer = Tracer().install()
    code = raag.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.summary()), file=sys.stderr)
    sys.exit(code)

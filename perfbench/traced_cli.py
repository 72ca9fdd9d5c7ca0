"""Run the ``tagmap`` command line with the layer wrappers installed.

    python traced_cli.py SPAWNED STATE_OUT <tagmap arguments>

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; the spans and ``startup_s`` (from SPAWNED until ``main`` is entered)
are written to STATE_OUT as JSON.  The exit status is the command's.
"""
import json
import sys
import time

import layers
from spans import Tracer


def main() -> int:
    spawned, state_out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    layers.install(tracer)
    import tagmap.cli
    entered = time.monotonic()
    code = tagmap.cli.main(argv)
    state = tracer.state()
    state["startup_s"] = entered - spawned
    with open(state_out, "w") as fh:
        json.dump(state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

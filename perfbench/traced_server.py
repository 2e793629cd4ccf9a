#!/usr/bin/env python3
"""``tools/serve.py`` with the serving layers timed.

The traced server of the ``serve-sessions`` workload.  It installs
``layers.wrap_server_side``, runs ``tools/serve.py``'s ``main`` with the
arguments it was given (the pool forks after the wrappers are in), and after
the drain prints the timed calls as one line, ``perfbench-layers <json>``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SERVE = HERE.parent / "tools" / "serve.py"


def main(argv) -> int:
    spec = importlib.util.spec_from_file_location("serve", SERVE)
    serve = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(serve)  # puts src/ on sys.path
    from layers import LayerClock, Patches, wrap_server_side

    clock = LayerClock(keep_records=True)
    wrap_server_side(Patches(clock))
    code = serve.main(argv)
    print("perfbench-layers " + json.dumps(clock.export()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One set-up of a benchmark process: import degjc and call into each layer.

``python3 perfbench/setup_probe.py OUT_DIR`` does only this and exits; the
benchmark times several such fresh interpreters and reports the median as
``setup_s``.  ``run.py`` performs the same warm-up before it measures.
"""

import contextlib
import io
import sys
from pathlib import Path


def warm_up(out_dir):
    """One small call into every layer: model, specialfn, closedform,
    oracle (with its cutoff-doubling re-run), entanglement and cli."""
    import degjc.cli

    calls = (
        ["concurrence-sweep", "--field", "number:n=1", "--beta", "0.1", "--steps", "3",
         "--compare-oracle"],
        ["separability", "--beta", "0.1", "--steps", "2"],
    )
    for i, argv in enumerate(calls):
        with contextlib.redirect_stderr(io.StringIO()):
            code = degjc.cli.main(argv + ["--out", str(Path(out_dir) / f"warm-up-{i}.csv")])
        if code != 0:
            raise RuntimeError(f"warm-up call {argv[0]} exited with {code}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up(sys.argv[1])

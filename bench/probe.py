"""Fresh-interpreter probes started one at a time by ``run.py``.

    python3 bench/probe.py setup CONFIG...
        import qmaxent.cli, load every config, then print the monotonic
        clock in nanoseconds; the parent subtracts its own clock reading
        from just before the start to get the set-up time.
    python3 bench/probe.py rss COMMAND CONFIG...
        run COMMAND on every config through qmaxent.cli.main, then print
        the peak resident set size in KiB.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    import qmaxent.cli as cli

    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        for config in rest:
            cli.load_config(config)
        print(time.monotonic_ns())
        return 0
    if mode == "rss":
        import contextlib
        import io
        import resource

        command, configs = rest[0], rest[1:]
        for config in configs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, config])
            if code != 0:
                return code
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one `mapquot` CLI command under the layer tracer.

Usage: python traced_cli.py STATS_PATH CLI_ARG...

The command's stdout and exit code are those of `python -m mapquot.cli`;
the tracer's counters and spans are written to STATS_PATH as JSON when the
command ends, whether or not it succeeded.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import mapquot.cli

    try:
        return mapquot.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())

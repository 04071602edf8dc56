"""Capture the golden ``toric scan --family F`` outputs (default step, loci
from the shipped catalog) that ``tests/test_cli.py`` replays byte for byte.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 tests/goldens/capture_scan.py > tests/goldens/toric_scan.json
"""

import io
import json
import os
import subprocess
import sys

from futakizero.cli import main
from futakizero.toric import FAMILIES


def capture():
    os.environ.pop("FUTAKIZERO_CATALOG", None)
    commands = {}
    for family in sorted(FAMILIES):
        command = f"toric scan --family {family}"
        out = io.StringIO()
        code = main(command.split(), out=out)
        commands[command] = {"code": code, "stdout": out.getvalue()}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    return {"commit": commit, "commands": commands}


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, ensure_ascii=False, sort_keys=True)
    sys.stdout.write("\n")

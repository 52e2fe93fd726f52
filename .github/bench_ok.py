"""Check one perfbench run: its last output line must report ``correct`` with no failed operation.

Usage: python3 .github/bench_ok.py OUTPUT_FILE   (exits 1 otherwise)
"""

import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    result = json.loads(handle.read().splitlines()[-1])
print({k: v for k, v in result.items() if k != "metrics"})
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)

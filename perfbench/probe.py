"""Set-up probe, run in a fresh interpreter: import loopfloer and answer
`loopfloer fill "(a1 b1 c-2)" 1/0` through cli.run.  Prints the CLI's answer,
then one JSON line with the import and first-answer times.

    python3 perfbench/probe.py <path of the src directory>
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loopfloer.cli  # noqa: E402

t1 = time.perf_counter()
code = loopfloer.cli.run(["fill", "(a1 b1 c-2)", "1/0"])
t2 = time.perf_counter()
print(json.dumps({"code": code, "import_s": t1 - t0, "first_answer_ms": 1e3 * (t2 - t1)}))

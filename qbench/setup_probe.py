"""One set-up of a workload, timed from a fresh interpreter.

    python3 qbench/setup_probe.py SRC_DIR QUESTIONS_JSON

imports qforge (its CLI and therefore every module) from SRC_DIR, loads
every input file listed in QUESTIONS_JSON once through ``qforge.files``,
and prints the seconds both took.
"""

import json
import sys
import time


def main() -> int:
    src, questions = sys.argv[1], sys.argv[2]
    with open(questions, encoding="utf-8") as fh:
        inputs = json.load(fh)["inputs"]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import qforge.cli  # noqa: F401
    from qforge import files

    loaders = {
        "algebra": files.load_algebra,
        "structure": files.load_structure,
        "sentence": files.load_sentence,
        "nae": files.load_nae,
    }
    for kind, path in inputs:
        loaders[kind](path)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())

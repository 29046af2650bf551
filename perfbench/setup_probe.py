"""Time a fresh interpreter's set-up: import localtts.cli, then load_config.

    python3 setup_probe.py SRC_DIR CONFIG_PATH

Prints one JSON object {"import_s": ..., "load_s": ..., "factor": ...} on
stdout, where factor is the host factor of hostclock.py measured in this
process around the two steps.
"""
import json
import sys
from time import perf_counter

from hostclock import calibrate, host_factor

if __name__ == "__main__":
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    before = calibrate()
    start = perf_counter()
    import localtts.cli  # noqa: F401
    from localtts.config import load_config
    imported = perf_counter()
    load_config(config_path)
    loaded = perf_counter()
    factor = host_factor(before, calibrate())
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                      "factor": factor}))

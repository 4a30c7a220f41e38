"""The goldens of ``test_golden`` under other CPU paths.

Each case reruns ``tests/test_golden.py`` through ``pytest.main`` in a
fresh interpreter, under one setting that moves numpy's, OpenBLAS's or
glibc's kernels on this CPU.  ``MOVED`` deselects the goldens whose bytes
follow the setting; every other golden is portable and has to pass.  A
case skips, naming why, when its setting cannot take on this CPU or did
not take in the child.
"""

import array
import ctypes
import hashlib
import inspect
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condks
import test_golden

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

NPY_DISABLED = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
SETTINGS = {
    "openblas-haswell": ("OPENBLAS_CORETYPE", "Haswell"),
    "openblas-sandybridge": ("OPENBLAS_CORETYPE", "Sandybridge"),
    "numpy-no-avx512": ("NPY_DISABLE_CPU_FEATURES", " ".join(NPY_DISABLED)),
    "glibc-no-fma": ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-FMA"),
}
# The goldens whose bytes move under each setting.  The table moves under
# every kernel that numpy or OpenBLAS swaps.  Sandybridge's kernel has no
# FMA, and the pinned report prints p_value 0.7231151430650735, not the
# golden's 0.723115143065074.
MOVED = {
    "openblas-haswell": ["test_table_n200_stdout"],
    "openblas-sandybridge": ["test_table_n200_stdout", "test_test_report_line[pinned]"],
    "numpy-no-avx512": ["test_table_n200_stdout"],
    "glibc-no-fma": [],
}
# The CPU flag that each OpenBLAS core's kernels need.
CORE_FLAGS = {"Haswell": "avx2", "Sandybridge": "avx"}


def corename() -> str | None:
    """The core name of the OpenBLAS this process mapped, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if (get := getattr(lib, name, None)) is not None:
                get.restype, get.argtypes = ctypes.c_char_p, []
                return get().decode()
    return None


def libm_probe() -> str:
    """sha256 of libm's exp at 200,000 seeded arguments; glibc's FMA and
    non-FMA variants give other bits for some of them."""
    rng = random.Random(0)
    args = [rng.uniform(-700.0, 700.0) for _ in range(200_000)]
    return hashlib.sha256(array.array("d", map(math.exp, args)).tobytes()).hexdigest()


# The arguments are pytest's.  Line 1 of stdout is what the setting gave,
# the last line pytest's exit code, each test's outcome (its setup's if
# that did not pass) and the deselected node ids.
CHILD_SCRIPT = """\
import array, ctypes, hashlib, json, math, random, sys
import numpy  # loads the OpenBLAS whose core corename() reads
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__

""" + inspect.getsource(corename) + "\n\n" + inspect.getsource(libm_probe) + """

print(json.dumps({"corename": corename(), "cpu_features": __cpu_features__,
                  "libm": libm_probe()}), flush=True)

class Outcomes:
    def __init__(self):
        self.outcomes, self.deselected = {}, []

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or not report.passed:
            self.outcomes.setdefault(report.nodeid, report.outcome)

    def pytest_deselected(self, items):
        self.deselected += [item.nodeid for item in items]

got = Outcomes()
code = pytest.main(sys.argv[1:], plugins=[got])
print(json.dumps({"exit": int(code), "outcomes": got.outcomes, "deselected": got.deselected}))
"""


def cannot_take(setting: str) -> str | None:
    """Why ``setting`` cannot move a kernel on this CPU, or None."""
    name, value = SETTINGS[setting]
    if name == "OPENBLAS_CORETYPE":
        flag = CORE_FLAGS[value]
        try:
            flags = Path("/proc/cpuinfo").read_text().split()
        except OSError:
            return f"cannot read /proc/cpuinfo to see whether this CPU has {flag}"
        return None if flag in flags else f"this CPU has no {flag}, which {value}'s kernels need"
    if name == "GLIBC_TUNABLES":
        libc = platform.libc_ver()[0]
        return None if libc == "glibc" else f"the C library is {libc or 'unknown'}, not glibc"
    if unknown := [feature for feature in NPY_DISABLED if feature not in __cpu_features__]:
        return f"numpy {np.__version__} dispatches no {', '.join(unknown)}"
    if not __cpu_features__.get("AVX512_SKX"):
        return "this CPU runs no AVX-512 loops to turn off"
    return None


def did_not_take(setting: str, report: dict) -> str | None:
    """Why the child's report shows ``setting`` left its kernels alone, or None."""
    name, value = SETTINGS[setting]
    if name == "OPENBLAS_CORETYPE":
        core = report["corename"]
        return None if core == value else f"OpenBLAS reports core {core!r}, not {value!r}"
    if name == "GLIBC_TUNABLES":
        return "libm's exp gives this process's bits" if report["libm"] == libm_probe() else None
    if still := [feature for feature in NPY_DISABLED if report["cpu_features"].get(feature)]:
        return f"numpy still dispatches {', '.join(still)}"
    return None


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_portable_goldens(setting, pytestconfig, tmp_path):
    if reason := cannot_take(setting):
        pytest.skip(reason)
    src = str(Path(condks.__file__).resolve().parents[1])
    name, value = SETTINGS[setting]
    env = {key: val for key, val in os.environ.items() if key not in dict(SETTINGS.values())}
    env.update({name: value, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))})
    golden = Path(test_golden.__file__)
    prefix = golden.relative_to(pytestconfig.rootpath).as_posix()
    deselect = [f"{prefix}::{test}" for test in MOVED[setting]]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(golden), f"--rootdir={pytestconfig.rootpath}",
         "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         f"--basetemp={tmp_path / 'basetemp'}", *(f"--deselect={test}" for test in deselect)],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report, got = json.loads(lines[0]), json.loads(lines[-1])
    if reason := did_not_take(setting, report):
        pytest.skip(f"{name}={value!r} did not take: {reason}")
    # Exactly the moved goldens were deselected, and every other one ran and passed.
    assert got["outcomes"] == dict.fromkeys(got["outcomes"], "passed"), proc.stdout
    assert (sorted(got["deselected"]), got["exit"]) == (sorted(deselect), 0), proc.stdout
    covered = {nodeid.partition("::")[2].partition("[")[0]
               for nodeid in [*got["outcomes"], *deselect]}
    assert covered == {test for test in vars(test_golden) if test.startswith("test_")}

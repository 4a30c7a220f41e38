"""The portable goldens under other CPU paths.

``statistics.csv`` and ``summary.json`` of the anchor, both ``condks curve
--grid 7`` hashes and the ``condks test`` report lines are meant to keep
their bytes across CPUs: the transform calls libm, not numpy's SIMD
transcendental loops, the statistic needs no BLAS, and these 120-row curves
hold under glibc's libm without FMA.  The exception is a report's p-value,
which is the exact law's last bits and so follows the BLAS kernel: both
hold under Haswell's and numpy's paths, but the pinned report's does not
hold under Sandybridge's.  Each case reruns them in a fresh interpreter
under one setting that moves numpy's, OpenBLAS's or glibc's kernels on this
CPU, and compares them with the constants of ``test_golden``.  A case
skips, naming why, when its setting cannot take on this CPU or did not take
in the child.  The table golden is not here: the exact law's last bits, and
so the table's bytes, depend on the CPU path, as README's paragraph on
reproducibility says.
"""

import array
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
from test_golden import (ANCHOR_SCENARIO, ANCHOR_STATISTICS_SHA256, ANCHOR_SUMMARY_SHA256,
                         CURVE_GRID7_SHA256, PINNED, TEST_REPORTS, UNPINNED, pairs_file)

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
# The CPU flag that each OpenBLAS core's kernels need.
CORE_FLAGS = {"Haswell": "avx2", "Sandybridge": "avx"}


def libm_probe() -> str:
    """sha256 of libm's exp at 200,000 seeded arguments; glibc's FMA and
    non-FMA variants give other bits for some of them."""
    rng = random.Random(0)
    args = [rng.uniform(-700.0, 700.0) for _ in range(200_000)]
    return hashlib.sha256(array.array("d", map(math.exp, args)).tobytes()).hexdigest()


# Argument 1 is the scenario file, 2 the xi,zeta file, 3 an output
# directory and the rest the family specs.  Line 1 of stdout is what the
# setting gave: the OpenBLAS core name, read through ctypes from the
# library this process mapped (None if none could be read), numpy's CPU
# features and ``libm_probe``.  Line 2 is the goldens' bytes.
CHILD_SCRIPT = """\
import array, ctypes, hashlib, json, math, os, random, sys
import numpy  # loads the OpenBLAS whose core corename() reads
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__

def corename():
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
                get.restype = ctypes.c_char_p
                return get().decode()
    return None

""" + inspect.getsource(libm_probe) + """
print(json.dumps({"corename": corename(), "cpu_features": __cpu_features__,
                  "libm": libm_probe()}), flush=True)
from click.testing import CliRunner
from condks.cli import main

scenario, pairs, out, *specs = sys.argv[1:]
runner = CliRunner()
sha = lambda data: hashlib.sha256(data).hexdigest()
res = runner.invoke(main, ["simulate", scenario, "--out", out])
artifacts = [open(os.path.join(out, name), "rb").read() for name in ("statistics.csv", "summary.json")]
got = {"anchor": [res.exit_code, *map(sha, artifacts)], "reports": {}, "curves": {}}
for spec in specs:
    res = runner.invoke(main, ["test", pairs, "--family", spec])
    got["reports"][spec] = [res.exit_code, res.stdout]
    res = runner.invoke(main, ["curve", pairs, "--family", spec, "--grid", "7"])
    got["curves"][spec] = sha(res.stdout_bytes) if res.exit_code == 0 else res.output
print(json.dumps(got))
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
        if report["corename"] != value:
            return f"OpenBLAS reports core {report['corename']!r}, not {value!r}"
        return None
    if name == "GLIBC_TUNABLES":
        if report["libm"] == libm_probe():
            return "libm's exp gives this process's bits"
        return None
    if still := [feature for feature in NPY_DISABLED if report["cpu_features"].get(feature)]:
        return f"numpy still dispatches {', '.join(still)}"
    return None


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_portable_goldens(setting, pairs_file, tmp_path):
    if reason := cannot_take(setting):
        pytest.skip(reason)
    scenario = tmp_path / "anchor.cfg"
    scenario.write_text(ANCHOR_SCENARIO)
    src = str(Path(condks.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in
           {name for name, _ in SETTINGS.values()}}
    name, value = SETTINGS[setting]
    env.update({name: value, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(scenario), str(pairs_file),
         str(tmp_path / "out"), UNPINNED, PINNED],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report, got = map(json.loads, proc.stdout.splitlines())
    if reason := did_not_take(setting, report):
        pytest.skip(f"{name}={value!r} did not take: {reason}")
    # The meta-test rejects: the anchor's data are not null-distributed.
    assert got["anchor"] == [1, ANCHOR_STATISTICS_SHA256, ANCHOR_SUMMARY_SHA256]
    reports = {spec: [code, line + "\n"] for spec, (code, line) in TEST_REPORTS.items()}
    if setting == "openblas-sandybridge":
        # Sandybridge's kernel has no FMA, and the exact law's last bits
        # follow it: the pinned report prints p_value 0.7231151430650735,
        # not the golden's 0.723115143065074.
        del reports[PINNED], got["reports"][PINNED]
    assert got["reports"] == reports
    assert got["curves"] == CURVE_GRID7_SHA256

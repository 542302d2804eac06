"""The Figure 3 split as an import boundary (DESIGN.md §10).

A cold compile — one ``repro vectorize`` process, or a session's first
compile — imports only the compile-time phase: never the offline
generator (pseudocode, bitvector, the VIDL lifter) and never the tools
around the compiler (baseline, analysis, serve, emit, kernels, the
bench harness, the vector interpreter).  Every check here runs in a
fresh interpreter, because in the pytest process an earlier test has
already imported everything and would hide a broken or eager import.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and packages, with everything under them) a cold compile
#: must not load.
OFF_BOUNDARY = (
    "repro.pseudocode", "repro.bitvector", "repro.baseline",
    "repro.analysis", "repro.serve", "repro.emit", "repro.kernels",
    "repro.vidl.lift", "repro.vidl.interp", "repro.vidl.printer",
    "repro.obs.bench", "repro.machine.exec",
)

#: Budget for the ``repro`` modules one cold ``repro vectorize`` loads.
MAX_COLD_MODULES = 55

KERNEL = """\
void dot(const int16_t *restrict a, const int16_t *restrict b,
         int32_t *restrict c) {
    c[0] = a[0] * b[0] + a[1] * b[1];
    c[1] = a[2] * b[2] + a[3] * b[3];
}
"""

# Each script compiles the kernel file argv[1] for target argv[2], then
# prints the loaded repro modules as JSON on stderr's last line.
CENSUS = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))),
      file=sys.stderr)
"""

CLI_SCRIPT = """
import sys
import repro.cli
status = repro.cli.main(["vectorize", sys.argv[1], "--target", sys.argv[2]])
assert status == 0, status
""" + CENSUS

SESSION_SCRIPT = """
import sys
import repro.session
from repro.frontend import compile_c
session = repro.session.VectorizationSession(target=sys.argv[2])
for fn in compile_c(open(sys.argv[1]).read()):
    print(session.vectorize(fn).program.dump())
""" + CENSUS


def _python(args, artifact=None, timeout=120.0):
    """Run ``python args`` in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TARGET_ARTIFACT", None)
    if artifact is not None:
        env["REPRO_TARGET_ARTIFACT"] = artifact
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True,
                          timeout=timeout)


def _cold_compile(script, kernel_file, target, artifact=None):
    proc = _python(["-c", script, str(kernel_file), target],
                   artifact=artifact)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stderr.strip().splitlines()[-1])
    return proc.stdout, modules


def _off_boundary(modules):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in OFF_BOUNDARY)]


@pytest.fixture(scope="module")
def kernel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "dot.c"
    path.write_text(KERNEL)
    return path


@pytest.mark.parametrize("target", ["avx2", "neon128"])
def test_cold_cli_vectorize_stays_compile_time(kernel_file, target):
    stdout, modules = _cold_compile(CLI_SCRIPT, kernel_file, target)
    assert "vector program for dot" in stdout
    assert _off_boundary(modules) == []
    assert len(modules) <= MAX_COLD_MODULES, modules


@pytest.mark.parametrize("target", ["avx2", "neon128"])
def test_session_first_import_stays_compile_time(kernel_file, target):
    # ``import repro.session`` first used to hit the machine.model <->
    # vectorizer cycle once the package inits stopped hiding it.
    stdout, modules = _cold_compile(SESSION_SCRIPT, kernel_file, target)
    assert "vector program for dot" in stdout
    assert _off_boundary(modules) == []


def test_pseudocode_fallback_imports_the_generator_on_demand(kernel_file):
    """With the artifact off, targets are built from pseudocode, which
    imports the generator lazily; the printed program is unchanged."""
    cold, _ = _cold_compile(CLI_SCRIPT, kernel_file, "avx2")
    built, modules = _cold_compile(CLI_SCRIPT, kernel_file, "avx2",
                                   artifact="off")
    assert built == cold
    assert "repro.pseudocode" in modules and "repro.vidl.lift" in modules


def _all_modules():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_first():
    """Each module imports as the first import of a fresh interpreter,
    so no import cycle is masked by what some earlier import loaded."""
    script = "import importlib, sys; importlib.import_module(sys.argv[1])"

    def first_import(name):
        return name, _python(["-c", script, name], timeout=60)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(first_import, _all_modules()))
    failures = {name: proc.stderr.strip().splitlines()[-1]
                for name, proc in results if proc.returncode != 0}
    assert failures == {}

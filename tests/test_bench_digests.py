"""The committed bench digests pin what the vectorizer emits.

``BENCH_vegen.json`` records, per kernel x target cell, the SHA-256 of
the printed vector program (``program_sha256``).  This test recompiles
every cell at the document's beam width, one session per target, and
requires each digest to match byte for byte: any change to pack
selection, lowering or the printed form shows up as a named cell.  It
also emits C for every cell, so emission never raising is checked on the
whole matrix at the bench width (``tests/test_emit.py`` pins the exact
source of four kernels at the default width).

Regenerate the document with ``repro bench --jobs 2 --compare
BENCH_vegen.json`` when a change moves a digest on purpose.
"""

import json
import os

from repro.emit import emit_c
from repro.kernels import all_kernels
from repro.obs.bench import program_digest
from repro.session import VectorizationSession

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_vegen.json")


def test_every_committed_cell_reproduces_its_digest():
    with open(BENCH_PATH) as handle:
        doc = json.load(handle)
    kernels = all_kernels()
    cells = {}
    for cell in doc["results"]:
        cells.setdefault(cell["target"], []).append(cell)
    assert sum(len(c) for c in cells.values()) == \
        len(doc["kernels"]) * len(doc["targets"])
    mismatches = []
    for target_name, target_cells in sorted(cells.items()):
        session = VectorizationSession(target=target_name,
                                       beam_width=doc["beam_width"])
        target = session.target
        for cell in target_cells:
            result = session.vectorize(kernels[cell["kernel"]])
            digest = program_digest(result.program)
            if digest != cell["program_sha256"]:
                mismatches.append(
                    f"{cell['kernel']}/{target_name}: "
                    f"{cell['program_sha256'][:12]} -> {digest[:12]}")
            source = emit_c(result.program, target)
            assert source.startswith("/* generated by repro.emit"), \
                f"{cell['kernel']}/{target_name}"
    assert not mismatches, "\n".join(mismatches)

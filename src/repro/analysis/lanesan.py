"""LaneSan: lane-binding sanitizer (§4's correct-by-construction claim).

For every compute pack, chase the offline-generated lane bindings and
verify that each live output lane really computes the scalar instruction
it replaced: the match's operation must be the instruction's canonical
pattern for that lane, and the pack's operand vectors must deliver exactly
the match's live-ins to the lane operation's parameters.  ``DONT_CARE``
operand lanes must never be consumed by a live output lane — neither at
the pack level nor in the emitted program (an undef gather lane feeding a
live lane operation).
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.analysis.manager import AnalysisPass, AnalysisUnit


class LaneSan(AnalysisPass):
    name = "lanesan"

    def run(self, unit: AnalysisUnit) -> List[Diagnostic]:
        from repro.ir.values import constants_equal
        from repro.vectorizer.pack import ComputePack
        from repro.vidl.ast import DONT_CARE

        diagnostics: List[Diagnostic] = []
        fn_name = getattr(unit.function, "name", "<function>")

        for pack in unit.packs:
            if not isinstance(pack, ComputePack):
                continue
            inst = pack.inst
            desc = inst.desc
            operands = pack.operands()
            location = f"{fn_name}: pack {inst.name}"

            for lane, match in enumerate(pack.matches):
                if match is None:
                    continue  # dead output lane: nothing replaced
                lane_op = desc.lane_ops[lane]
                if match.operation.key() != inst.match_ops[lane].key():
                    diagnostics.append(self.diag(
                        ERROR, location,
                        f"lane {lane}: matched operation does not equal "
                        f"the instruction's canonical pattern",
                    ))
                    continue
                if len(match.live_ins) != len(lane_op.bindings):
                    diagnostics.append(self.diag(
                        ERROR, location,
                        f"lane {lane}: {len(match.live_ins)} live-ins for "
                        f"{len(lane_op.bindings)} lane bindings",
                    ))
                    continue
                for param_pos, ref in enumerate(lane_op.bindings):
                    if not (0 <= ref.input_index < len(operands)):
                        diagnostics.append(self.diag(
                            ERROR, location,
                            f"lane {lane}: binding references input "
                            f"x{ref.input_index} which does not exist",
                        ))
                        continue
                    operand = operands[ref.input_index]
                    if not (0 <= ref.lane_index < len(operand)):
                        diagnostics.append(self.diag(
                            ERROR, location,
                            f"lane {lane}: binding reads lane "
                            f"{ref.lane_index} of a {len(operand)}-lane "
                            f"operand",
                        ))
                        continue
                    element = operand[ref.lane_index]
                    expected = match.live_ins[param_pos]
                    if element is DONT_CARE:
                        diagnostics.append(self.diag(
                            ERROR, location,
                            f"live lane {lane} consumes don't-care input "
                            f"lane x{ref.input_index}[{ref.lane_index}]",
                        ))
                    elif element is not expected and not constants_equal(
                            element, expected):
                        diagnostics.append(self.diag(
                            ERROR, location,
                            f"lane {lane}: operand "
                            f"x{ref.input_index}[{ref.lane_index}] no "
                            f"longer carries the matched live-in "
                            f"{expected!r}",
                        ))

        diagnostics.extend(self._check_program(unit, fn_name))
        return diagnostics

    def _check_program(self, unit: AnalysisUnit,
                       fn_name: str) -> List[Diagnostic]:
        """Emitted-program view: undef gather lanes must not feed live
        lane operations."""
        from repro.vectorizer.vector_ir import VGather, VOp

        diagnostics: List[Diagnostic] = []
        if unit.program is None:
            return diagnostics
        for position, node in enumerate(unit.program.nodes):
            if not isinstance(node, VOp):
                continue
            desc = node.inst.desc
            location = (f"{fn_name}: node {position} ({node.inst.name})")
            if len(node.live_lanes) != desc.num_lanes:
                diagnostics.append(self.diag(
                    ERROR, location,
                    f"{len(node.live_lanes)} live-lane flags for "
                    f"{desc.num_lanes} output lanes",
                ))
                continue
            if len(node.operands) != desc.num_inputs:
                diagnostics.append(self.diag(
                    ERROR, location,
                    f"{len(node.operands)} operands for "
                    f"{desc.num_inputs} inputs",
                ))
                continue
            for lane, live in enumerate(node.live_lanes):
                if not live:
                    continue
                for ref in desc.lane_ops[lane].bindings:
                    source = node.operands[ref.input_index]
                    if isinstance(source, VGather) and \
                            ref.lane_index < len(source.sources) and \
                            source.sources[ref.lane_index].kind == "undef":
                        diagnostics.append(self.diag(
                            ERROR, location,
                            f"live lane {lane} reads undef gather lane "
                            f"x{ref.input_index}[{ref.lane_index}]",
                        ))
        return diagnostics

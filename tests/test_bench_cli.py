"""Tests for the ``repro bench`` harness and CLI subcommand.

The bench document is the repository's perf trajectory: these tests pin
its schema, the CLI entry point that writes it, and the ``--compare``
regression gate that future PRs rely on.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.obs import (
    BENCH_SCHEMA,
    bench_one,
    compare_bench,
    load_bench,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.obs.trace import SPAN_NAMES


@pytest.fixture(scope="module")
def small_bench():
    """One small bench document shared by the read-only tests."""
    return run_bench(kernel_names=["complex_mul", "isel_abs_i16"],
                     targets=["sse4"], beam_width=2)


class TestRunBench:
    def test_document_shape(self, small_bench):
        doc = small_bench
        validate_bench(doc)  # must not raise
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["targets"] == ["sse4"]
        assert doc["kernels"] == ["complex_mul", "isel_abs_i16"]
        assert len(doc["results"]) == 2
        assert doc["summary"]["num_results"] == 2
        assert doc["summary"]["geomean_cost_ratio"] > 0

    def test_result_cells(self, small_bench):
        for result in small_bench["results"]:
            assert result["scalar_cost"] > 0
            assert result["vector_cost"] > 0
            assert result["cost_ratio"] == pytest.approx(
                result["vector_cost"] / result["scalar_cost"]
            )
            assert result["wall_s"] > 0
            # Phase keys come from the span-name contract.
            assert set(result["phases"]) <= SPAN_NAMES - {"vectorize"}
            for phase in ("select_packs", "codegen", "match_table"):
                assert phase in result["phases"], phase
            assert result["counters"].get("beam.iterations", 0) >= 1

    def test_verify_and_gap_pass_timings(self, small_bench):
        """Each cell times its TransVal and gap passes and reports the
        gap pass's node count; the summary totals both timings."""
        for result in small_bench["results"]:
            assert result["verify_s"] > 0
            assert result["gap_s"] > 0
            assert result["gap_nodes"] >= 1
        summary = small_bench["summary"]
        assert summary["total_verify_s"] == pytest.approx(
            sum(r["verify_s"] for r in small_bench["results"]), abs=1e-3)
        assert summary["total_gap_s"] == pytest.approx(
            sum(r["gap_s"] for r in small_bench["results"]), abs=1e-3)

    def test_disabled_passes_record_no_timings(self):
        doc = run_bench(kernel_names=["isel_abs_i16"], targets=["sse4"],
                        beam_width=2, verify=False, gap_node_budget=0)
        cell = doc["results"][0]
        for field in ("verify_s", "gap_s", "gap_nodes"):
            assert field not in cell, field
        assert "total_verify_s" not in doc["summary"]
        assert "total_gap_s" not in doc["summary"]

    def test_document_is_json_serializable(self, small_bench):
        rebuilt = json.loads(json.dumps(small_bench))
        validate_bench(rebuilt)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            run_bench(kernel_names=["no_such_kernel"], targets=["sse4"])

    def test_bench_one_matches_run_bench_costs(self, small_bench):
        from repro.kernels import all_kernels

        cell = bench_one("complex_mul", all_kernels()["complex_mul"],
                         "sse4", beam_width=2)
        matrix_cell = next(r for r in small_bench["results"]
                           if r["kernel"] == "complex_mul")
        # Costs are deterministic model arithmetic; wall times are not.
        assert cell["scalar_cost"] == matrix_cell["scalar_cost"]
        assert cell["vector_cost"] == matrix_cell["vector_cost"]
        assert cell["counters"] == matrix_cell["counters"]


class TestValidateBench:
    def test_rejects_wrong_schema(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["schema"] = "something-else/v9"
        with pytest.raises(ValueError, match="schema"):
            validate_bench(doc)

    def test_rejects_missing_fields(self, small_bench):
        doc = copy.deepcopy(small_bench)
        del doc["results"][0]["cost_ratio"]
        with pytest.raises(ValueError, match="cost_ratio"):
            validate_bench(doc)

    def test_rejects_duplicate_cells(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["results"].append(copy.deepcopy(doc["results"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            validate_bench(doc)

    def test_rejects_malformed_counters(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["results"][0]["counters"]["beam.iterations"] = "three"
        with pytest.raises(ValueError, match="counters"):
            validate_bench(doc)

    def test_v2_requires_gap_column_in_every_cell(self, small_bench):
        doc = copy.deepcopy(small_bench)
        del doc["results"][0]["optimality_gap"]
        with pytest.raises(ValueError, match="optimality_gap"):
            validate_bench(doc)

    def test_v3_requires_program_digest_in_every_cell(self, small_bench):
        doc = copy.deepcopy(small_bench)
        del doc["results"][0]["program_sha256"]
        with pytest.raises(ValueError, match="program_sha256"):
            validate_bench(doc)
        doc["results"][0]["program_sha256"] = "not-a-digest"
        with pytest.raises(ValueError, match="program_sha256"):
            validate_bench(doc)

    def test_v2_baseline_without_digests_still_compares_clean(
            self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["schema"] = "repro-bench/v2"
        for result in doc["results"]:
            del result["program_sha256"]
        validate_bench(doc)  # must not raise
        regressions, _ = compare_bench(doc, small_bench)
        assert regressions == []

    def test_rejects_malformed_timing_columns(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["results"][0]["gap_nodes"] = "many"
        with pytest.raises(ValueError, match="gap_nodes"):
            validate_bench(doc)

    def test_baseline_without_timing_columns_still_compares_clean(
            self, small_bench):
        """The timing columns are additive: a document without them
        still validates and compares clean against one with them."""
        old = copy.deepcopy(small_bench)
        for result in old["results"]:
            for field in ("verify_s", "gap_s", "gap_nodes"):
                del result[field]
        del old["summary"]["total_verify_s"]
        del old["summary"]["total_gap_s"]
        validate_bench(old)
        regressions, _ = compare_bench(old, small_bench)
        assert regressions == []

    def test_v1_baseline_without_gap_column_still_loads(self,
                                                        small_bench):
        """The committed pre-v2 trajectory must stay usable as a
        ``--compare`` baseline."""
        doc = copy.deepcopy(small_bench)
        doc["schema"] = "repro-bench/v1"
        for result in doc["results"]:
            del result["optimality_gap"]
        validate_bench(doc)  # must not raise
        regressions, _ = compare_bench(doc, small_bench)
        assert regressions == []


class TestCompareBench:
    def test_identical_documents_have_no_regressions(self, small_bench):
        regressions, _ = compare_bench(small_bench, small_bench)
        assert regressions == []

    def test_pack_count_change_is_a_regression(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["results"][0]["num_packs"] += 1
        regressions, _ = compare_bench(small_bench, doc)
        assert any("pack count" in r for r in regressions)

    def test_injected_cost_regression_is_flagged(self, small_bench):
        worse = copy.deepcopy(small_bench)
        cell = worse["results"][0]
        cell["cost_ratio"] *= 1.5
        regressions, _ = compare_bench(small_bench, worse)
        assert len(regressions) == 1
        assert "cost ratio regressed" in regressions[0]
        assert cell["kernel"] in regressions[0]

    def test_devectorization_is_flagged(self, small_bench):
        worse = copy.deepcopy(small_bench)
        vectorized = [r for r in worse["results"] if r["vectorized"]]
        assert vectorized, "fixture needs at least one vectorized cell"
        vectorized[0]["vectorized"] = False
        regressions, _ = compare_bench(small_bench, worse)
        assert any("was vectorized, now scalar" in r
                   for r in regressions)

    def test_missing_cell_is_flagged(self, small_bench):
        shrunk = copy.deepcopy(small_bench)
        dropped = shrunk["results"].pop()
        regressions, _ = compare_bench(small_bench, shrunk)
        assert any(dropped["kernel"] in r and "missing" in r
                   for r in regressions)

    def test_improvement_is_a_note_not_a_regression(self, small_bench):
        better = copy.deepcopy(small_bench)
        better["results"][0]["cost_ratio"] *= 0.5
        regressions, notes = compare_bench(small_bench, better)
        assert regressions == []
        assert any("improved" in n for n in notes)

    def test_program_digest_change_is_a_regression(self, small_bench):
        changed = copy.deepcopy(small_bench)
        cell = changed["results"][0]
        cell["program_sha256"] = "0" * 64
        regressions, _ = compare_bench(small_bench, changed)
        assert len(regressions) == 1
        assert "program digest changed" in regressions[0]
        assert cell["kernel"] in regressions[0]

    def test_program_digest_is_the_printed_program_hash(self,
                                                        small_bench):
        import hashlib

        from repro.kernels import all_kernels
        from repro.session import VectorizationSession

        cell = next(r for r in small_bench["results"]
                    if r["kernel"] == "complex_mul")
        result = VectorizationSession(target="sse4", beam_width=2) \
            .vectorize(all_kernels()["complex_mul"])
        assert cell["program_sha256"] == hashlib.sha256(
            result.program.dump().encode("utf-8")).hexdigest()

    def test_tolerance_absorbs_small_drift(self, small_bench):
        drifted = copy.deepcopy(small_bench)
        drifted["results"][0]["cost_ratio"] *= 1.005
        regressions, _ = compare_bench(small_bench, drifted,
                                       cost_tolerance=0.01)
        assert regressions == []


class TestBenchCLI:
    def test_bench_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_vegen.json"
        status = main(["bench", "--kernels", "2", "--targets", "sse4",
                       "--beam-width", "2", "--quiet",
                       "--out", str(out)])
        assert status == 0
        doc = load_bench(str(out))  # validates on load
        assert len(doc["kernels"]) == 2
        assert doc["targets"] == ["sse4"]
        captured = capsys.readouterr()
        assert "repro bench:" in captured.out
        assert str(out) in captured.out

    def test_bench_compare_clean(self, tmp_path, capsys):
        out = tmp_path / "new.json"
        old = tmp_path / "old.json"
        doc = run_bench(kernel_names=["complex_mul"], targets=["sse4"],
                        beam_width=2)
        write_bench(doc, str(old))
        status = main(["bench", "--kernel", "complex_mul",
                       "--targets", "sse4", "--beam-width", "2",
                       "--quiet", "--out", str(out),
                       "--compare", str(old)])
        assert status == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_compare_flags_injected_regression(self, tmp_path,
                                                     capsys):
        out = tmp_path / "new.json"
        old = tmp_path / "old.json"
        doc = run_bench(kernel_names=["complex_mul"], targets=["sse4"],
                        beam_width=2)
        # Pretend the old trajectory was much better than today's.
        golden = copy.deepcopy(doc)
        for cell in golden["results"]:
            cell["cost_ratio"] /= 2.0
            cell["vector_cost"] /= 2.0
        write_bench(golden, str(old))
        status = main(["bench", "--kernel", "complex_mul",
                       "--targets", "sse4", "--beam-width", "2",
                       "--quiet", "--out", str(out),
                       "--compare", str(old)])
        assert status == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "cost ratio regressed" in captured.out

    def test_bench_compare_reads_baseline_before_overwriting_it(
            self, tmp_path, capsys):
        """``--compare`` naming the ``--out`` file (regenerating the
        committed trajectory in place) gates against the old contents,
        not the freshly written ones."""
        path = tmp_path / "BENCH_vegen.json"
        doc = run_bench(kernel_names=["complex_mul"], targets=["sse4"],
                        beam_width=2)
        golden = copy.deepcopy(doc)
        for cell in golden["results"]:
            cell["cost_ratio"] /= 2.0
            cell["vector_cost"] /= 2.0
        write_bench(golden, str(path))
        status = main(["bench", "--kernel", "complex_mul",
                       "--targets", "sse4", "--beam-width", "2",
                       "--quiet", "--out", str(path),
                       "--compare", str(path)])
        assert status == 1
        assert "cost ratio regressed" in capsys.readouterr().out
        assert load_bench(str(path))["results"][0]["cost_ratio"] == \
            doc["results"][0]["cost_ratio"]

    def test_bench_profile_records_top_functions(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        status = main(["bench", "--kernel", "complex_mul",
                       "--targets", "sse4", "--beam-width", "2",
                       "--quiet", "--profile", "5", "--out", str(out)])
        assert status == 0
        doc = load_bench(str(out))  # profile entries validate on load
        cell = doc["results"][0]
        profile = cell["profile"]
        assert 0 < len(profile) <= 5
        for entry in profile:
            assert entry["ncalls"] >= 1
            assert entry["cumtime"] >= entry["tottime"] >= 0
            assert "(" in entry["function"]
        # Sorted by cumulative time, descending.
        cums = [entry["cumtime"] for entry in profile]
        assert cums == sorted(cums, reverse=True)
        # The profile sits next to phases and does not perturb them.
        assert "phases" in cell and "select_packs" in cell["phases"]

    def test_bench_without_profile_has_no_profile_field(self, small_bench):
        for cell in small_bench["results"]:
            assert "profile" not in cell

    def test_validate_rejects_malformed_profile(self, small_bench):
        doc = copy.deepcopy(small_bench)
        doc["results"][0]["profile"] = [{"function": 7}]
        with pytest.raises(ValueError, match="profile"):
            validate_bench(doc)

    def test_bench_rejects_unknown_target(self, tmp_path, capsys):
        status = main(["bench", "--kernels", "1", "--targets", "mips",
                       "--out", str(tmp_path / "b.json")])
        assert status == 2
        assert "unknown targets" in capsys.readouterr().err

    def test_bench_rejects_unknown_kernel(self, tmp_path, capsys):
        status = main(["bench", "--kernel", "nope", "--targets", "sse4",
                       "--quiet", "--out", str(tmp_path / "b.json")])
        assert status == 2
        assert "unknown kernels" in capsys.readouterr().err


class TestParallelBench:
    """``jobs > 1`` fans cells over worker processes; the merged document
    must be identical to a serial run apart from wall times."""

    @staticmethod
    def _stable_view(doc):
        """Everything in a bench document except timings and job count."""
        view = {k: v for k, v in doc.items()
                if k not in ("generated_at", "jobs")}
        view["summary"] = {k: v for k, v in doc["summary"].items()
                           if k not in ("total_wall_s", "total_verify_s",
                                        "total_gap_s")}
        view["results"] = [
            {k: v for k, v in cell.items()
             if k not in ("wall_s", "phases", "verify_s", "gap_s")}
            for cell in doc["results"]
        ]
        return view

    def test_parallel_matches_serial_modulo_timings(self):
        kwargs = dict(kernel_names=["complex_mul", "isel_abs_i16"],
                      targets=["sse4"], beam_width=2)
        serial = run_bench(jobs=1, **kwargs)
        parallel = run_bench(jobs=2, **kwargs)
        assert parallel["jobs"] == 2
        validate_bench(parallel)
        assert self._stable_view(serial) == self._stable_view(parallel)

    def test_parallel_merge_preserves_serial_cell_order(self):
        doc = run_bench(kernel_names=["isel_abs_i16", "complex_mul"],
                        targets=["sse4"], beam_width=2, jobs=2)
        assert [c["kernel"] for c in doc["results"]] == \
            ["isel_abs_i16", "complex_mul"]

    def test_compare_gates_parallel_output(self, tmp_path):
        kwargs = dict(kernel_names=["complex_mul"], targets=["sse4"],
                      beam_width=2)
        old = run_bench(jobs=1, **kwargs)
        new = run_bench(jobs=2, **kwargs)
        regressions, _ = compare_bench(old, new)
        assert regressions == []

    def test_cli_jobs_flag(self, tmp_path, capsys):
        out = tmp_path / "bench_jobs.json"
        status = main(["bench", "--kernel", "complex_mul",
                       "--targets", "sse4", "--beam-width", "2",
                       "--jobs", "2", "--quiet", "--out", str(out)])
        assert status == 0
        doc = load_bench(str(out))
        assert doc["jobs"] == 2
        assert len(doc["results"]) == 1

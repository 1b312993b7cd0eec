"""The contract checkers: FAULT001/002, EXC001 and SCHEMA001 fire on
their fixtures, honoured contracts stay silent, the shipped tree is
clean."""

from pathlib import Path

import repro
from repro.analysis import analyze_modules, collect_modules, load_module
from repro.analysis.callgraph import Program
from repro.analysis.contracts import (
    check_contracts,
    check_exception_contracts,
    check_fault_sites,
    check_schema_vocabulary,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(repro.__file__).parent


def _program(filename: str, name: str) -> Program:
    return Program([load_module(name, FIXTURES / filename)])


class TestFaultSiteDrift:
    def test_registered_but_never_fired_is_fault001(self):
        findings = check_fault_sites(
            _program("bad_faultsites.py", "repro.faults.fixture")
        )
        fault001 = [f for f in findings if f.rule == "FAULT001"]
        assert any("cache.put" in f.message for f in fault001)
        assert any("relation.scan" in f.message for f in fault001)
        assert len(fault001) == 2

    def test_fired_but_never_registered_is_fault002(self):
        findings = check_fault_sites(
            _program("bad_faultsites.py", "repro.faults.fixture")
        )
        fault002 = [f for f in findings if f.rule == "FAULT002"]
        assert len(fault002) == 1
        assert "cache.evict" in fault002[0].message

    def test_fired_and_registered_is_clean(self):
        findings = check_fault_sites(
            _program("bad_faultsites.py", "repro.faults.fixture")
        )
        assert not any("cache.get" in f.message for f in findings)

    def test_no_inventory_means_vacuously_clean(self):
        program = _program("bad_lockorder.py", "repro.service.fixture")
        assert check_fault_sites(program) == []

    def test_transport_draw_counts_as_a_call_site(self):
        findings = check_fault_sites(
            _program("bad_transport.py", "repro.transport.fixture")
        )
        fault001 = [f for f in findings if f.rule == "FAULT001"]
        assert len(fault001) == 1
        assert "conn.recv" in fault001[0].message
        assert not any("conn.send" in f.message for f in findings)

    def test_unregistered_transport_site_is_fault002(self):
        findings = check_fault_sites(
            _program("bad_transport.py", "repro.transport.fixture")
        )
        fault002 = [f for f in findings if f.rule == "FAULT002"]
        assert len(fault002) == 1
        assert "net.partition" in fault002[0].message

    def test_shipped_inventory_matches_the_call_sites(self):
        program = Program(collect_modules(SRC_ROOT))
        assert check_fault_sites(program) == []


class TestExceptionContracts:
    def test_swallowing_broad_handler_is_exc001(self):
        findings = check_exception_contracts(
            _program("bad_exceptions.py", "repro.resilience.fixture")
        )
        flagged = [f for f in findings if f.function == "swallowing_boundary"]
        assert flagged, "swallowed ServiceUnavailable missed"
        assert flagged[0].rule == "EXC001"
        assert "ServiceUnavailable" in flagged[0].message
        assert flagged[0].chain == ("flaky",)

    def test_typed_handler_before_broad_is_clean(self):
        findings = check_exception_contracts(
            _program("bad_exceptions.py", "repro.resilience.fixture")
        )
        assert not any(f.function == "honoured_boundary" for f in findings)

    def test_reraising_broad_handler_is_clean(self):
        findings = check_exception_contracts(
            _program("bad_exceptions.py", "repro.resilience.fixture")
        )
        assert not any(f.function == "reraising_boundary" for f in findings)

    def test_the_fixture_triggers_exactly_exc001(self):
        module = load_module(
            "repro.resilience.fixture", FIXTURES / "bad_exceptions.py"
        )
        report = analyze_modules([module])
        assert {f.rule for f in report.findings} == {"EXC001"}

    def test_non_degradable_tuple_constant_disposes(self, tmp_path):
        honoured = tmp_path / "ladder_fixture.py"
        honoured.write_text(
            "class RequestTimeout(RuntimeError):\n"
            "    pass\n"
            "NON_DEGRADABLE = (RequestTimeout,)\n"
            "def slow() -> int:\n"
            "    raise RequestTimeout('deadline')\n"
            "def run() -> int:\n"
            "    try:\n"
            "        return slow()\n"
            "    except NON_DEGRADABLE:\n"
            "        raise\n"
            "    except Exception:\n"
            "        return -1\n",
            encoding="utf-8",
        )
        module = load_module("repro.resilience.fixture", honoured)
        assert check_exception_contracts(Program([module])) == []

    def test_shipped_tree_has_no_exc001(self):
        program = Program(collect_modules(SRC_ROOT))
        assert check_exception_contracts(program) == []


class TestSchemaVocabulary:
    def test_comparison_against_undeclared_op_is_schema001(self):
        findings = check_schema_vocabulary(
            _program("bad_schema.py", "repro.storage.fixture")
        )
        assert any("'replace'" in f.message and f.line for f in findings)

    def test_payload_literal_outside_vocabulary_is_schema001(self):
        findings = check_schema_vocabulary(
            _program("bad_schema.py", "repro.storage.fixture")
        )
        assert any("'drop'" in f.message for f in findings)

    def test_required_table_drift_is_schema001(self):
        findings = check_schema_vocabulary(
            _program("bad_schema.py", "repro.storage.fixture")
        )
        messages = [f.message for f in findings]
        assert any("_REQUIRED" in m and "'replace'" in m for m in messages)
        assert any("missing ops" in m and "remove" in m for m in messages)

    def test_declared_member_is_clean(self):
        findings = check_schema_vocabulary(
            _program("bad_schema.py", "repro.storage.fixture")
        )
        assert not any(f.message.startswith("op literal 'add'") for f in findings)
        assert not any(
            f.message.startswith("op payload value 'add'") for f in findings
        )

    def test_the_fixture_triggers_exactly_schema001(self):
        module = load_module("repro.storage.fixture", FIXTURES / "bad_schema.py")
        report = analyze_modules([module])
        assert {f.rule for f in report.findings} == {"SCHEMA001"}

    def test_module_without_vocabulary_import_is_out_of_scope(self):
        program = _program("bad_lockorder.py", "repro.service.fixture")
        assert check_schema_vocabulary(program) == []

    def test_shipped_vocabularies_are_consistent(self):
        program = Program(collect_modules(SRC_ROOT))
        assert check_schema_vocabulary(program) == []


class TestAggregate:
    def test_check_contracts_collects_all_families(self):
        program = _program("bad_faultsites.py", "repro.faults.fixture")
        rules = {f.rule for f in check_contracts(program)}
        assert rules == {"FAULT001", "FAULT002"}

    def test_shipped_tree_is_contract_clean(self):
        program = Program(collect_modules(SRC_ROOT))
        assert check_contracts(program) == []

"""Environment / Testbed / EM schema tests."""

import numpy as np
import pytest

from repro.data import EM_FIELDS, TABLE1_SCHEMA, Environment, random_testbed


class TestEnvironment:
    def _env(self, **overrides):
        base = dict(
            testbed="Testbed_15",
            sut="SUT_DB",
            testcase="Testcase_Regression",
            build="Build_S10",
        )
        base.update(overrides)
        return Environment(**base)

    def test_fields_and_dict(self):
        env = self._env()
        assert env.as_dict() == {
            "testbed": "Testbed_15",
            "sut": "SUT_DB",
            "testcase": "Testcase_Regression",
            "build": "Build_S10",
        }
        assert env.as_tuple() == ("Testbed_15", "SUT_DB", "Testcase_Regression", "Build_S10")

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            self._env(testbed="")

    def test_build_type_letter(self):
        assert self._env(build="Build_S10").build_type == "S"
        assert self._env(build="Build_D02").build_type == "D"

    def test_chain_key_excludes_build(self):
        a = self._env(build="Build_S10")
        b = self._env(build="Build_S11")
        assert a.chain_key == b.chain_key

    def test_overlap_counts_shared_fields(self):
        # The §3.1 example: same testbed and SUT, different testcase/build.
        a = Environment("Testbed_15", "SUT_DB", "Testcase_Regression", "Build_S10")
        b = Environment("Testbed_15", "SUT_DB", "Testcase_Endurance", "Build_S11")
        assert a.overlap(b) == 2
        assert a.overlap(a) == 4

    def test_hashable_and_equal(self):
        assert self._env() == self._env()
        assert len({self._env(), self._env()}) == 1

    def test_em_fields_constant(self):
        assert EM_FIELDS == ("testbed", "sut", "testcase", "build")


class TestTestbed:
    def test_schema_has_five_layers(self):
        assert set(TABLE1_SCHEMA) == {
            "hardware",
            "virtualization",
            "operating_system",
            "application",
            "test_case",
        }

    def test_random_testbed_covers_stack_layers(self):
        testbed = random_testbed("Testbed_01", np.random.default_rng(0))
        # One label per entry in layers 1-4.
        expected = sum(
            len(TABLE1_SCHEMA[layer])
            for layer in ("hardware", "virtualization", "operating_system", "application")
        )
        assert len(testbed.labels) == expected
        assert testbed.label("hypervisor") in [str(v) for v in TABLE1_SCHEMA["virtualization"]["hypervisor"]]

    def test_values_come_from_domains(self):
        testbed = random_testbed("tb", np.random.default_rng(1))
        for layer in ("hardware", "virtualization", "operating_system", "application"):
            for name, domain in TABLE1_SCHEMA[layer].items():
                assert testbed.label(name) in {str(v) for v in domain}

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            random_testbed("", np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        a = random_testbed("tb", np.random.default_rng(5))
        b = random_testbed("tb", np.random.default_rng(5))
        assert a.labels == b.labels

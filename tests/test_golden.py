"""Golden report bytes: the sha256 of JSON reports recorded before the
verifier registry became one table of rows, so any change to a record, its
order or the report layout shows up here."""

import hashlib

import pytest

from quadforge.classify import VERIFIERS, theorem_driver
from quadforge.cli import main

THEOREM_SHA256 = {
    4: "60a5f225de01af45c1b072d02ac48651ff0ceedc9735768b17708a914ca17ad1",
    8: "5da47eae7d44144f7ff094ab0412dbc3e9fe774f841f9193965a3f03f4ab1336",
    9: "91f27144e311a32b04f711c4658b44b2b91fdd14c267f7c91aa0ff6a39dc1ab7",
    41: "167767819ba0b57026d21c5a8e18ce6ec70de0c439622f50a4e82c382c9b7ea0",
    100: "0664ffbdda0533fba93c53741cd85dfbf9962319689c7a878d4ff3bb9de800ce",
    2000: "e7d458ceb3e0cbee0d7d7dc819f7ee65d9e50024acf5f9599bf991908c00b940",
}
TABLES_SHA256 = "3d6f60ed193c825dcb56cf7dd807de0c1caf9efb3c309e1fb19e529c654dab0a"
# the full published range, recorded before the scans took (p, f) from
# iter_prime_powers and solved each q by one cube root
FULL_RANGE_SHA256 = "34f358d0cee9c1d6fed09a97bb159269246e87050067e30236f0730f64c087a3"
# the top of the shared sieve, where q^3 = 8e18 is just under 2^63: recorded
# before the scans became numpy passes, so it pins their int64 edge
SIEVE_TOP_SHA256 = "4cb070f6af05c765dae5d9ea371c7077dd779b4544a9dab166cffcf9750e1e00"
# W(2) with every selection, and its incidence file: recorded while subgroups
# were still stored as element tuples, so they pin the double-coset rep ids
# and the coset labels that the id-native handles must reproduce
BUILD_W2_SHA256 = "a9d54dec4abd01457e6671586e5f7fe4255ab1af2c0988b9fbae1236cf98300c"
EXPORT_SHA256 = "b9f8664c3467a2b7d864ffe9dc6d587171fbb4dae0a8e06b25b5fa0932f819b5"


def _sha256_of(argv, path) -> str:
    assert main([*argv, "--format", "json", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("q_max", [*sorted(THEOREM_SHA256), None])
def test_theorem_report_bytes(tmp_path, q_max):
    # without --qmax the theorem runs to 100 and records that in its config
    argv = ["verify", "--lemma", "theorem", *(["--qmax", str(q_max)] if q_max else [])]
    assert _sha256_of(argv, tmp_path / "r.json") == THEOREM_SHA256[q_max or 100]


def test_full_range_report_bytes(tmp_path):
    argv = ["verify", "--lemma", "theorem", "--qmax", "108003", "--workers", "1"]
    assert _sha256_of(argv, tmp_path / "r.json") == FULL_RANGE_SHA256


def test_sieve_top_report_bytes(tmp_path):
    argv = ["verify", "--lemma", "theorem", "--qmax", "2000000"]
    assert _sha256_of(argv, tmp_path / "r.json") == SIEVE_TOP_SHA256


def test_tables_report_bytes(tmp_path):
    assert _sha256_of(["tables"], tmp_path / "t.json") == TABLES_SHA256


def test_build_w2_report_bytes(tmp_path):
    assert _sha256_of(["build-w2", "--all-selections"], tmp_path / "w.json") == BUILD_W2_SHA256


def test_export_file_bytes(tmp_path):
    path = tmp_path / "w2.gq"
    assert main(["export", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256


def test_theorem_runs_the_registry_in_order():
    tags = [rec.lemma_tag for rec in theorem_driver(2000).records]
    assert tags == list(VERIFIERS)

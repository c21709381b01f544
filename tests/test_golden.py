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
# `tables` as csv and as text, recorded while tables 4 and 5 were still two
# separate tables: text keeps each row's key order, which JSON sorts away
TABLES_FORMAT_SHA256 = {
    "csv": "40c82ed3eed153b86f85eda11b89910f65a7ea3b5ed7d33f571814390c627c4d",
    "text": "7939b42834b3bc094e9fbc9efacead3033088e5bc36e4cc6a7eb2ea85747d89f",
}
# the full published range, recorded before the scans took (p, f) from
# iter_prime_powers and solved each q by one cube root
FULL_RANGE_SHA256 = "34f358d0cee9c1d6fed09a97bb159269246e87050067e30236f0730f64c087a3"
# the top of the shared sieve, where q^3 = 8e18 is just under 2^63: recorded
# before the scans became numpy passes, so it pins their int64 edge
SIEVE_TOP_SHA256 = "4cb070f6af05c765dae5d9ea371c7077dd779b4544a9dab166cffcf9750e1e00"
# 100,000 q past the sieve limit, where the scans run on Python ints: recorded
# while every q of case8-case9 from 4 was still tested one at a time; CI
# compares the --qmax 2100000 report with it
PAST_SIEVE_SHA256 = "3f0b1094ce388d160569d7f8717d1f0bc17c7bdb95ec1d09402b21e543c9d628"
# W(2) with every selection, and its incidence file: recorded while subgroups
# were still stored as element tuples, so they pin the double-coset rep ids
# and the coset labels that the id-native handles must reproduce
BUILD_W2_SHA256 = "a9d54dec4abd01457e6671586e5f7fe4255ab1af2c0988b9fbae1236cf98300c"
EXPORT_SHA256 = "b9f8664c3467a2b7d864ffe9dc6d587171fbb4dae0a8e06b25b5fa0932f819b5"
# `verify --lemma TAG` for every registry row over its default range,
# recorded before the theorem and `verify` judged rows by one function
ROW_SHA256 = {
    "case1-excluded": "4ee6ad4bcde82ad971166e46fc913b2a87aa9e361d69fd333c85825bbe52bb34",
    "sporadic": "03cd906175ca427e710515a32f9d532d0bb06f42fa5a0e17d9018333d57ad6fa",
    "case2-case6": "d7c4722cb346e2992c19551cf5b93b49c06ced13943c2d570ac4f561b100f1cc",
    "case3-case5": "d2429025f324bcf5240e2350ec73b63133eb0398215d55fbc9a0affccf581577",
    "case3-case8": "0ec78cb5d17ad0e60a4d7434c8a3a8037d6fa3913f96d03184969ecab2e65805",
    "case3-case9": "ad8b7410344856fb4673fba2ce241289cea44ce53b4220fcb2641bdd6c0b5d3a",
    "case4-case8": "33bdafaef41f98f739f1e7599e7295c7e53354c0c08ce8f3f711c11aeea22c22",
    "case4-case9": "7e07e43951e3fa5aea1130b32d6fb844e961639c1a75fbde3bd8b925838f3032",
    "case5-case8": "39e9f4a039fc6feeb6406506dec890b0038bf870390d1065eb5b485700e38bc4",
    "case5-case9": "25575975468fe08d60e2ec0b88518cedbd92b28974bdc745754bd0ecbcc7b747",
    "case6-case8": "0823dab036f31c4e8e792bb82e5185609ec87657c19e7cf5ee6340e29da31794",
    "case6-case9": "b48bb4f76ecdc4043ec05656ebdc69b361ab762908fb8ff0fd75076d1fc07d85",
    "case7-case8": "fa0c99a4e86794f0c11dd331b46f6e5b2d19154fecb954fc0e7d732b5343971b",
    "case7-case9": "ccd75f3517bf6e69f38cd3a97009c587762eb8e5ce020e11676c96dd364ffa9e",
    "case8-case9": "d1254e6ea74501b646bc1159e43aec67378677b97b4f44dc57d59f149ea6cdf9",
    "case2-equal": "adac55604a03aa4bb337345b6be58bb1ee41b1de99961ceaf4500830538151d5",
    "case3-equal": "585336278aebcc211323f9e97e0df71638e0467fb6126a869c08fbb420a6f20b",
    "case4-equal": "0f82c76e24522e8c84e0fc7d4da595c1d2298eec8ff3644558b3455b77250d37",
    "case5-equal": "4b20fb78f74be824dc75b2b3da008026bcdbeae159d6b17958339aa0085071e0",
    "case6-equal": "2ea019b056161564925874dd307583a98727f90da3a4c08eba4019d66c369d93",
    "case7-equal": "d1a716723610023a953878a80fb49155ee318bb575b6b70c6292da9433532abc",
    "case8-equal": "1ffafa8a9b14abc650003cd3ea95b4f5d5e62a7b97c8b39da0c67d6b4704adaa",
    "case9-equal": "4ecc127e400c5ab6c0f9fb8f624215776e9bac6b55612c5caf67599121433991",
    "same-case-nonisomorphic": "28479803db15630b8ba3676c9aafd774ab1d489f4438b9b13fb3b63168f062ca",
    "case9-q41": "94f4fb81066987daa623a93b15d85a3b179f8d8b1b1fdf0fa3e08424cd7efe1b",
    "w2-construction": "8c49e3b33d6576161c959700ab55fbf2adae88fe0d41eaabc67f4e06ff163e6d",
}


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


@pytest.mark.parametrize("tag", VERIFIERS)  # a row without a pinned hash fails
def test_row_report_bytes(tmp_path, tag):
    assert _sha256_of(["verify", "--lemma", tag], tmp_path / "r.json") == ROW_SHA256[tag]


def test_tables_report_bytes(tmp_path):
    assert _sha256_of(["tables"], tmp_path / "t.json") == TABLES_SHA256


@pytest.mark.parametrize("fmt", sorted(TABLES_FORMAT_SHA256))
def test_tables_bytes_in_csv_and_text(tmp_path, fmt):
    path = tmp_path / f"t.{fmt}"
    assert main(["tables", "--format", fmt, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLES_FORMAT_SHA256[fmt]


def test_build_w2_report_bytes(tmp_path):
    assert _sha256_of(["build-w2", "--all-selections"], tmp_path / "w.json") == BUILD_W2_SHA256


def test_export_file_bytes(tmp_path):
    path = tmp_path / "w2.gq"
    assert main(["export", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256


def test_theorem_runs_the_registry_in_order():
    tags = [rec.lemma_tag for rec in theorem_driver(2000).records]
    assert tags == list(VERIFIERS)

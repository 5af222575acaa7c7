import json

import pytest
from fractions import Fraction

from wittcert import codecs
from wittcert.arith import DomainError
from wittcert.codecs import (
    MAX_EXPANDED_DIM,
    LimitExceeded,
    dump_certificate,
    dump_rat,
    parse_certificate,
    parse_form,
    parse_form_text,
    parse_quaternion,
    parse_rat,
    parse_tower,
    parse_tower_text,
)
from wittcert.forms import pfister, qform, tensor
from wittcert.involutions import quaternion
from wittcert.similitude import lemma24_certificate, verify_certificate


class TestRationals:
    def test_round_trip(self):
        for v in (3, -7, Fraction(9, 4), Fraction(-1, 3)):
            assert parse_rat(dump_rat(v)) == Fraction(v)

    def test_rejects_floats_and_booleans(self):
        with pytest.raises(DomainError):
            parse_rat(1.5)
        with pytest.raises(DomainError):
            parse_rat(True)


class TestFormDescriptors:
    def test_text_syntax(self):
        assert parse_form_text("<1,-2,3>") == qform([1, -2, 3])
        assert parse_form_text("<<2,5>>") == pfister([2, 5])
        with pytest.raises(DomainError):
            parse_form_text("diag 1 2")

    def test_composition(self):
        obj = {"tensor": [{"pfister": [2, 5]}, {"diag": [1, 1]}]}
        assert parse_form(obj) == tensor(pfister([2, 5]), qform([1, 1]))
        obj = {"sum": [{"diag": [1]}, {"scale": [-3, {"diag": [1, 2]}]}]}
        assert parse_form(obj) == qform([1, -3, -6])

    def test_entries_reduced_to_square_classes(self):
        assert parse_form({"diag": [8, "9/4"]}) == qform([2, 1])

    def test_bad_key_rejected(self):
        with pytest.raises(DomainError):
            parse_form({"gram": [[1, 0], [0, 1]]})


FOUR_FOLD = [{"pfister": [2, 3, 5, 7]}, {"pfister": [-1, 11, 13, 17]},
             {"pfister": [19, 23, 29, 31]}, {"pfister": [37, 41, 43, 47]}]


class TestExpandedDimensionLimit:
    def test_tensor_of_four_4_fold_pfister_forms_is_refused_before_expanding(self, monkeypatch):
        # 16^4 = 65,536 dimensions; no tensor product may be formed.
        def no_expansion(*args):
            raise AssertionError("expanded before the limit check")

        monkeypatch.setattr(codecs, "tensor", no_expansion)
        with pytest.raises(LimitExceeded, match="65536"):
            parse_form({"tensor": FOUR_FOLD})

    def test_sum_above_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(codecs, "orth_sum", lambda *args: pytest.fail("expanded"))
        with pytest.raises(LimitExceeded, match=str(MAX_EXPANDED_DIM + 1)):
            parse_form({"sum": [{"diag": [1] * MAX_EXPANDED_DIM}, {"diag": [2]}]})

    def test_the_limit_itself_is_accepted(self):
        # 16 * 16 * 4 = 1,024 dimensions.
        assert MAX_EXPANDED_DIM == 1024
        phi = parse_form({"tensor": FOUR_FOLD[:2] + [{"pfister": [19, 23]}]})
        assert phi.dim == MAX_EXPANDED_DIM
        phi = parse_form({"sum": [{"diag": [1] * (MAX_EXPANDED_DIM - 1)}, {"diag": [2]}]})
        assert phi.dim == MAX_EXPANDED_DIM

    def test_nested_descriptors_are_limited_at_every_level(self):
        inner = {"tensor": FOUR_FOLD[:2] + [{"pfister": [19, 23, 29]}]}
        with pytest.raises(LimitExceeded, match="2048"):
            parse_form({"sum": [{"diag": [1]}, inner]})


class TestTowerDescriptors:
    def test_text_syntax(self):
        assert parse_tower_text("Q").degree == 1
        assert parse_tower_text("Q(sqrt 5)").generators == (5,)
        assert parse_tower_text("Q(sqrt 2, sqrt -3)").generators == (2, -3)
        with pytest.raises(DomainError):
            parse_tower_text("Q[sqrt 2]")

    def test_json(self):
        assert parse_tower({"tower": [2, 18]}).generators == (2,)


def test_quaternion_descriptor():
    assert parse_quaternion([8, 5]) == quaternion(2, 5)
    assert parse_quaternion({"quaternion": [2, 5]}) == quaternion(2, 5)
    with pytest.raises(DomainError):
        parse_quaternion([2])


def test_certificate_round_trip_through_json():
    pi = pfister([-1, -1])
    psi = qform([1, 1, 1, 1, 1, -3])
    cert = lemma24_certificate(pi, psi, 2)
    blob = dump_certificate(cert)
    assert blob["schema"] == "hyp-certificate/1"
    parsed = parse_certificate(blob)
    assert parsed.multiplier == cert.multiplier
    assert parsed.tower == cert.tower
    # Evidence is advisory and not parsed back; the rest dumps to the same JSON.
    assert json.dumps({**dump_certificate(parsed), "evidence": blob["evidence"]}) == json.dumps(blob)
    assert verify_certificate(tensor(pi, psi), parsed)
    halved = parse_certificate({**blob, "multiplier": "5/2"})
    assert json.loads(json.dumps(dump_certificate(halved)))["multiplier"] == "5/2"
    with pytest.raises(DomainError):
        parse_certificate({"schema": "other/9"})

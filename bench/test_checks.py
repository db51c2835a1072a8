"""The benchmark's output checks must catch corrupted records.

    python3 -m pytest bench/test_checks.py
"""

from checks import (dvr_problems, matrix_bucket_problems, verdict_problems)


def _inert(m, N, v=None, eta=1, target=None):
    v = len(m) - 1 if v is None else v
    return {"ext": "inert", "v": v, "eta_delta": eta, "m": m, "N": N,
            "target": target}


def _split(m, N):
    return {"ext": "split", "v": len(m) - 1, "eta_delta": 1, "m": m, "N": N,
            "target": len(m) - 1}


def test_sound_records_pass():
    assert verdict_problems(_inert([1, 0, 1, 0, 1], 3, target=4)) == []
    assert verdict_problems(_inert([1, 2, 2, 1], 0, eta=-1)) == []
    assert verdict_problems(_split([1, 2, 1], 4)) == []
    assert dvr_problems("eisenstein", _inert([1, 1, 1], 1)) == []
    assert dvr_problems("irreducible", _inert([1, 0, 1, 0, 1], 3)) == []
    assert matrix_bucket_problems({-1: 1, 0: 1, 1: 1}, [1, 1, 1], 1, 2) == []


def test_flipped_bucket_fails():
    assert verdict_problems(_inert([1, 1, 1, 0, 1], 3))
    assert verdict_problems(_split([1, 3, 1], 4))


def test_N_off_by_one_fails():
    assert verdict_problems(_inert([1, 0, 1, 0, 1], 4))
    assert verdict_problems(_inert([1, 2, 2, 1], 1, eta=-1))
    assert verdict_problems(_split([1, 2, 1], 5))
    assert dvr_problems("irreducible", _inert([1, 0, 1, 0, 1], 2))


def test_non_palindromic_m_fails():
    # the signed sum still matches N, so only the palindrome check fires
    problems = verdict_problems(_inert([1, 2, 1, 0, 1, 1], 0, eta=-1))
    assert problems and all("palindromic" in p for p in problems)


def test_wrong_v_or_eta_fails():
    assert verdict_problems(_inert([1, 0, 1], 2, target=3))
    assert verdict_problems(_inert([1, 1], 0, eta=1))


def test_wrong_matrix_bucket_fails():
    assert matrix_bucket_problems({-1: 1, 0: 2, 1: 1}, [1, 1, 1], 1, 2)
    assert matrix_bucket_problems({0: 1, 1: 1, 5: 1}, [1, 1, 1], 1, 2)

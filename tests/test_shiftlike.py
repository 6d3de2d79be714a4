import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tractable_dyn as td
import oracles
from oracles import block_code_image
from tractable_dyn import Word


def w2(text):
    return Word.from_string(2, text)


def random_code(rng, max_window=3):
    window = rng.randint(1, max_window)
    phi = tuple(rng.randrange(2) for _ in range(2 ** window))
    return td.SlidingBlockCode(2, window, phi)


def random_word(rng, length, n_symbols=2):
    return Word.from_digits(
        n_symbols, [rng.randrange(n_symbols) for _ in range(length)])


digit_lists = st.lists(st.integers(0, 1), min_size=0, max_size=40)


# --- words ---


def test_word_packing_is_first_symbol_first():
    assert w2("01").value == 2
    assert w2("10").value == 1
    assert w2("0110").digits() == (0, 1, 1, 0)


@given(digit_lists)
def test_word_digit_round_trip(digits):
    word = Word.from_digits(2, digits)
    assert word.digits() == tuple(digits)
    assert Word.from_string(2, word.to_string()) == word


@given(digit_lists, digit_lists, digit_lists)
def test_concat_is_associative(a, b, c):
    x, y, z = (Word.from_digits(2, d) for d in (a, b, c))
    assert x.concat(y).concat(z) == x.concat(y.concat(z))


@given(digit_lists, st.integers(0, 40))
def test_prefix_and_drop_partition_a_word(digits, cut):
    word = Word.from_digits(2, digits)
    cut = min(cut, word.length)
    assert word.prefix(cut).concat(word.drop(cut)) == word


@given(st.lists(st.integers(0, 39), max_size=12))
def test_dotted_word_round_trip(digits):
    word = Word.from_digits(40, digits)
    text = word.to_string()
    assert text == ".".join(map(str, digits))
    assert Word.from_string(40, text) == word


@pytest.mark.parametrize("text", ["x.1", "1..2", "1.", ".1", " 1.2", "+1",
                                  "1_0", "\u0661"])
def test_dotted_word_rejects_non_integer_parts(text):
    with pytest.raises(td.ValidationError, match="bad word literal"):
        Word.from_string(40, text)


def test_word_rejects_bad_digits():
    with pytest.raises(td.ValidationError):
        Word.from_digits(2, [0, 2])
    with pytest.raises(td.ValidationError):
        Word.from_string(2, "0x1")


def test_all_words_enumerates_by_packed_value(monkeypatch):
    words = td.all_words(2, 3)
    assert [w.to_string() for w in words[:4]] == ["000", "100", "010", "110"]
    assert len(words) == 8
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", str(2 ** 20))
    with pytest.raises(td.CapExceededError):
        td.all_words(2, 30)


# --- sliding-block codes ---


def test_code_apply_shrinks_by_window_minus_one():
    shift = td.SlidingBlockCode(2, 2, (0, 0, 1, 1))
    assert shift.apply(w2("0110")).to_string() == "110"
    identity = td.SlidingBlockCode(2, 1, (0, 1))
    assert identity.apply(w2("0110")) == w2("0110")


def test_apply_rejects_another_alphabet_and_short_words():
    code = td.SlidingBlockCode(2, 3, (0, 1) * 4)
    with pytest.raises(td.ValidationError,
                       match="^word alphabet does not match the code$"):
        code.apply(Word(3, 4, 0))
    with pytest.raises(td.WordError, match="^need at least 3 symbols, got 2$"):
        code.apply(w2("01"))


def test_derive_gamma_identity_code():
    system = td.derive_gamma(td.SlidingBlockCode(2, 1, (0, 1)), 1)
    assert (system.n, system.k) == (1, 1)
    assert system.gamma == (0, 1, 0, 1)


def test_derive_gamma_shift_code():
    system = td.derive_gamma(td.SlidingBlockCode(2, 2, (0, 0, 1, 1)), 1)
    assert system.gamma == (0, 0, 1, 1)
    rng = random.Random(3)
    for _ in range(20):
        prefix = random_word(rng, rng.randint(2, 30))
        assert td.apply_g(system, prefix) == prefix.drop(1)


def test_derived_system_matches_code_to_depth_n():
    rng = random.Random(5)
    for _ in range(100):
        code = random_code(rng)
        n = rng.randint(1, 2)
        system = td.derive_gamma(code, n)
        assert system.k == max(code.window - 1, 1)
        prefix = random_word(rng, n + system.k + code.window)
        assert code.apply(prefix).prefix(n) == \
            td.apply_g(system, prefix).prefix(n)


def test_apply_and_table_match_the_power_sum_oracle():
    rng = random.Random(41)
    for _ in range(300):
        n_symbols = rng.randint(2, 4)
        window = rng.randint(1, 3)
        code = td.SlidingBlockCode(n_symbols, window, tuple(
            rng.randrange(n_symbols) for _ in range(n_symbols ** window)))
        word = random_word(rng, rng.randint(window, 60), n_symbols)
        assert code.apply(word) == block_code_image(code, word)
        n = rng.randint(1, 2)
        system = td.derive_gamma(code, n)
        assert system.gamma == tuple(
            block_code_image(code, Word(n_symbols, n + system.k, value)).value
            % n_symbols ** n for value in range(n_symbols ** (n + system.k)))


def test_derive_gamma_cap():
    with pytest.raises(td.CapExceededError):
        td.derive_gamma(td.SlidingBlockCode(2, 2, (0, 0, 1, 1)), 40)


# --- the shift-like map ---


def test_apply_g_replaces_the_leading_block():
    shift = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    assert td.apply_g(shift, w2("0110")).to_string() == "110"
    # the map derived from the identity still drops k symbols behind the
    # replaced block: it is not the identity on finite prefixes
    keep_first = td.ShiftLikeSystem(2, 1, 1, (0, 1, 0, 1))
    assert td.apply_g(keep_first, w2("0110")).to_string() == "010"


@given(digit_lists.filter(lambda d: len(d) >= 2))
def test_apply_g_length_contract(digits):
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    word = Word.from_digits(2, digits)
    assert td.apply_g(system, word).length == word.length - system.k


def test_apply_g_reports_required_length():
    system = td.ShiftLikeSystem(2, 2, 2, tuple(i % 4 for i in range(16)))
    with pytest.raises(td.WordError, match="4"):
        td.apply_g(system, w2("011"))


def test_apply_g_rejects_another_alphabet():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    with pytest.raises(td.ValidationError,
                       match="^word alphabet does not match the system$"):
        td.apply_g(system, Word(3, 4, 0))


# --- coding and decoding ---


def test_code_R_on_the_shift():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    track = td.code_R(system, w2("010101"), 3)
    assert [u.to_string() for u in track] == ["01", "10", "01", "10"]


def test_code_R_constant_for_identity_code():
    identity = td.SlidingBlockCode(2, 1, (0, 1))
    track = td.code_R(identity, w2("0110111"), 4, n=1, k=1)
    assert [u.to_string() for u in track] == ["01"] * 5


def test_code_R_pairs_live_in_the_fine_relation():
    rng = random.Random(11)
    for _ in range(30):
        code = random_code(rng)
        n = rng.randint(1, 2)
        system = td.derive_gamma(code, n)
        depth = rng.randint(1, 6)
        prefix = random_word(rng, n + system.k + depth * system.k + 2)
        track = td.code_R(system, prefix, depth)
        assert len(track) == depth + 1
        for t1, t2 in zip(track, track[1:]):
            # overlap law straight from the table
            assert t2.value % (2 ** system.n) == system.gamma[t1.value]


def test_code_R_keeps_the_checks_of_each_source():
    code = td.SlidingBlockCode(2, 3, (0, 1) * 4)
    system = td.derive_gamma(code, 1)
    prefix = w2("0110" * 10)
    cases = [
        ((system, prefix, -1), {}, "depth must be >= 0"),
        ((system, prefix, 2), {"n": 2}, "overrides do not match"),
        ((code, prefix, 2), {"n": 1}, "requires explicit n and k"),
        ((code, prefix, 2), {"n": 0, "k": 2}, "n and k must be >= 1"),
        ((code, prefix, 2), {"n": 1, "k": 1}, "k=1 too small"),
        ((object(), prefix, 2), {}, "cannot code orbits of object"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(td.ValidationError, match=message):
            td.code_R(*args, **kwargs)
    with pytest.raises(td.WordError, match="below required 43"):
        td.code_R(code, prefix, 20, n=1, k=2)
    assert td.code_R(code, prefix, 2, n=1, k=2) == [
        w2("011"), code.apply(prefix).prefix(3),
        code.apply(code.apply(prefix)).prefix(3)]


def test_code_R_checks_the_alphabet_after_the_length():
    code = td.SlidingBlockCode(2, 2, (0, 0, 1, 1))
    system = td.derive_gamma(code, 1)
    for depth in (0, 3):
        with pytest.raises(td.ValidationError,
                           match="^word alphabet does not match the system$"):
            td.code_R(system, Word(3, 8, 0), depth)
        with pytest.raises(td.ValidationError,
                           match="^word alphabet does not match the code$"):
            td.code_R(code, Word(3, 8, 0), depth, n=1, k=1)
    with pytest.raises(td.WordError, match="^prefix length 3 below required 5$"):
        td.code_R(system, Word(3, 3, 0), 3)


def test_code_R_reports_required_length():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    with pytest.raises(td.WordError, match="12"):
        td.code_R(system, w2("0101"), 10)


def test_decode_constant_track():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 1, 0, 1))
    track = [w2("01")] * 4
    assert td.decode_H(system, track).to_string() == "01111"


def test_decode_shift_track():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    track = [w2(t) for t in ("01", "10", "01")]
    assert td.decode_H(system, track).to_string() == "0101"


def test_decode_rejects_broken_tracks():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    with pytest.raises(td.WordError):
        td.decode_H(system, [w2("01"), w2("01")])


def test_decode_rejects_empty_and_malformed_sequences():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    with pytest.raises(td.WordError, match="^empty coding sequence$"):
        td.decode_H(system, [])
    for bad in (w2("011"), w2("0"), Word(3, 2, 0), "01", 1):
        for track in ([bad], [w2("01"), bad]):
            with pytest.raises(td.WordError,
                               match="^coding entries must be 2-symbol words$"):
                td.decode_H(system, track)


def test_round_trip_small_systems_exhaustively():
    """decode then re-code is the identity on every track, and vice versa."""
    for value in range(16):
        gamma = tuple((value >> t) & 1 for t in range(4))
        system = td.ShiftLikeSystem(2, 1, 1, gamma)
        tracks = [[u] for u in td.all_words(2, 2)]
        for _ in range(4):
            tracks = [t + [u] for t in tracks for u in td.all_words(2, 2)
                      if u.value % 2 == system.gamma[t[-1].value]]
        for track in tracks:
            decoded = td.decode_H(system, track)
            assert td.code_R(system, decoded, len(track) - 1) == track
        rng = random.Random(value)
        for _ in range(10):
            prefix = random_word(rng, 2 + 4)
            track = td.code_R(system, prefix, 4)
            assert td.decode_H(system, track) == prefix


# --- shadowing ---


def test_shadow_identity_code_pins_the_leading_block():
    code = td.SlidingBlockCode(2, 1, (0, 1))
    system = td.derive_gamma(code, 1)
    rng = random.Random(13)
    for _ in range(10):
        x = random_word(rng, 30)
        y = td.shadow_Q(code, system, x, 10)
        assert y.prefix(2) == x.prefix(2)


def test_shadow_shift_code_with_wide_window():
    code = td.SlidingBlockCode(2, 2, (0, 0, 1, 1))
    system = td.derive_gamma(code, 2)
    rng = random.Random(17)
    for _ in range(10):
        x = random_word(rng, 40)
        y = td.shadow_Q(code, system, x, 10)
        assert td.code_R(code, x, 10, n=system.n, k=system.k) == \
            td.code_R(system, y, 10)


def test_shadow_tracks_random_codes():
    rng = random.Random(19)
    for _ in range(10):
        code = random_code(rng)
        n = rng.randint(1, 2)
        system = td.derive_gamma(code, n)
        block = system.n + system.k
        steps = 20
        x = random_word(rng, block + steps * max(code.window - 1, 1) + 4)
        y = td.shadow_Q(code, system, x, steps)
        fx, gy = x, y
        for _ in range(steps + 1):
            assert fx.prefix(block) == gy.prefix(block)
            fx = code.apply(fx)
            gy = td.apply_g(system, gy)


def test_shadow_rejects_a_table_that_is_not_the_rounding():
    code = td.SlidingBlockCode(2, 2, (0, 0, 1, 1))
    system = td.derive_gamma(code, 1)
    as_list = td.ShiftLikeSystem(2, 1, 1, list(system.gamma))
    x = w2("0110" * 5)
    assert td.shadow_Q(code, as_list, x, 5) == td.shadow_Q(code, system, x, 5)
    gamma = list(system.gamma)
    gamma[1] = 1 - gamma[1]
    with pytest.raises(td.ValidationError, match="not the rounding"):
        td.shadow_Q(code, td.ShiftLikeSystem(2, 1, 1, tuple(gamma)), x, 5)
    with pytest.raises(td.ValidationError, match="not the rounding"):
        td.shadow_Q(td.SlidingBlockCode(2, 2, (0, 1, 0, 1)), system, x, 5)


def test_shadow_rejects_a_code_of_another_alphabet_or_width():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 1, 1))
    x = w2("0110" * 5)
    with pytest.raises(td.ValidationError,
                       match="^code and system use different alphabets$"):
        td.shadow_Q(td.SlidingBlockCode(3, 1, (0, 1, 2)), system, x, 3)
    with pytest.raises(td.ValidationError,
                       match="^system k=1 cannot capture a width-3 code$"):
        td.shadow_Q(td.SlidingBlockCode(2, 3, (0, 1) * 4), system, x, 3)


# --- measures and reports ---


def test_bernoulli_cylinder_values():
    assert td.bernoulli_cylinder(2, w2("01")) == Fraction(1, 4)
    with pytest.raises(td.ValidationError):
        td.bernoulli_cylinder(2, Word.from_digits(2, []))
    word = w2("0110")
    assert td.bernoulli_cylinder(2, word) == \
        sum(td.bernoulli_cylinder(2, word.concat(w2(str(a)))) for a in range(2))


def test_report_full_shift(full_shift):
    data = td.tractability_report_shiftlike(full_shift).to_json_dict()
    assert data["basic_sets"] == [["0", "1"]]
    assert data["fine_basic_sets"] == [["00", "10", "01", "11"]]
    assert data["terminal"] == [["0", "1"]]
    assert data["transient"] == []
    assert data["stationary"] == [{
        "class": ["0", "1"],
        "fine_class": ["00", "10", "01", "11"],
        "weights": {"0": "1/2", "1": "1/2"},
    }]
    assert data["decay"] == {"n": 1, "rho": 0.0}


def test_report_keep_first_splits_by_leading_symbol():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 1, 0, 1))
    data = td.tractability_report_shiftlike(system).to_json_dict()
    assert data["basic_sets"] == [["0"], ["1"]]
    assert data["fine_basic_sets"] == [["00", "01"], ["10", "11"]]
    assert data["terminal"] == [["0"], ["1"]]


def test_report_constant_gamma_absorbs_at_zero():
    system = td.ShiftLikeSystem(2, 1, 1, (0, 0, 0, 0))
    data = td.tractability_report_shiftlike(system).to_json_dict()
    assert data["basic_sets"] == [["0"]]
    assert data["fine_basic_sets"] == [["00", "01"]]
    assert data["transient"] == ["1"]
    assert data["stationary"] == [{
        "class": ["0"],
        "fine_class": ["00", "01"],
        "weights": {"0": "1"},
    }]
    assert data["decay"] == {"n": 1, "rho": 0.0}


def test_report_is_deterministic(full_shift):
    first = json.dumps(td.tractability_report_shiftlike(full_shift).to_json_dict())
    second = json.dumps(td.tractability_report_shiftlike(full_shift).to_json_dict())
    assert first == second


# --- serialization ---


def test_system_json_round_trip(full_shift):
    data = td.shiftlike.system_to_json(full_shift)
    assert td.shiftlike.system_from_json(data) == full_shift


def test_system_json_checks_cap_before_the_table():
    data = {"N": 2, "n": 20, "k": 20, "gamma": [0]}
    with pytest.raises(td.CapExceededError):
        td.shiftlike.system_from_json(data)


@pytest.mark.parametrize("data", [
    {"N": 2, "n": 1, "k": True, "gamma": [0, 1, 0, 1]},
    {"N": 2, "n": 1, "k": 1, "gamma": [0, True, False, 1]},
])
def test_system_json_rejects_bools(data):
    with pytest.raises(td.ValidationError, match="integers"):
        td.shiftlike.system_from_json(data)


@pytest.mark.parametrize("data", [
    {"N": 2, "m": True, "phi": [0, 1]},
    {"N": True, "m": 1, "phi": [0]},
    {"N": 2, "m": 1, "phi": [False, True]},
])
def test_code_json_rejects_bools(data):
    with pytest.raises(td.ValidationError, match="integers"):
        td.shiftlike.code_from_json(data)


def test_code_json_rejects_wrong_table_size():
    with pytest.raises(td.ValidationError):
        td.shiftlike.code_from_json({"N": 2, "m": 2, "phi": [0, 1]})


# Sizes past 4300 decimal digits cannot be printed as integers, so every
# size message names N^L.


def test_size_messages_name_powers():
    cases = [
        (td.CapExceededError, "2^20000 words exceed the cell cap",
         lambda: td.all_words(2, 20000)),
        (td.CapExceededError, "table of 2^20001 entries exceeds the cell cap",
         lambda: td.derive_gamma(td.SlidingBlockCode(2, 2, (0, 0, 1, 1)),
                                 20000)),
        (td.CapExceededError, "table of 3^20000 entries exceeds the cap",
         lambda: td.shiftlike.system_from_json(
             {"N": 3, "n": 10000, "k": 10000, "gamma": [0]})),
        (td.ValidationError, "phi table has 1 entries, expected 2^20000",
         lambda: td.shiftlike.code_from_json(
             {"N": 2, "m": 20000, "phi": [0]})),
        (td.ValidationError, "gamma table has 4 entries, expected 2^20000",
         lambda: td.ShiftLikeSystem(2, 10000, 10000, (0, 0, 1, 1))),
        (td.ValidationError, "packed value out of range [0, 2^20000)",
         lambda: Word(2, 20000, 2 ** 20000)),
        (td.ValidationError, "phi table has 3 entries, expected 2^2",
         lambda: td.SlidingBlockCode(2, 2, (0, 1, 1))),
    ]
    for error, message, call in cases:
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value).startswith(message)


def test_cap_checks_do_not_build_huge_powers(monkeypatch):
    # A length past the cap's bit length exceeds the cap for any N >= 2,
    # so 3^(10^7 + 1), a 4.8-million-digit integer, is never built.
    calls = []
    power_upto = td.shiftlike._power_upto

    def spy(n_symbols, length, limit):
        calls.append(length > limit.bit_length())
        return power_upto(n_symbols, length, limit)
    monkeypatch.setattr(td.shiftlike, "_power_upto", spy)
    code = td.SlidingBlockCode(3, 2, tuple(range(3)) * 3)
    with pytest.raises(td.CapExceededError, match=r"3\^10000001 entries"):
        td.derive_gamma(code, 10 ** 7)
    assert calls == [False, True]
    assert td.shiftlike._power_upto(2, 24, 2 ** 24) == 2 ** 24
    assert td.shiftlike._power_upto(2, 25, 2 ** 24) is None
    assert td.shiftlike._power_upto(3, 16, 2 ** 24) is None
    assert td.shiftlike._power_upto(3, 15, 2 ** 24) == 3 ** 15


def test_all_words_checks_the_alphabet_before_the_cap():
    with pytest.raises(td.ValidationError, match="alphabet size"):
        td.all_words(1, 30)


@pytest.mark.parametrize("n_symbols", [2, 3, 4])
def test_two_alphabet_model_matches_the_word_oracle(n_symbols, monkeypatch):
    rng = random.Random(47 + n_symbols)
    for n, k in [(1, 2), (2, 2), (1, 3), (2, 1)]:
        if n_symbols ** (n + k) > 1024:
            continue
        gamma = tuple(rng.randrange(n_symbols ** n)
                      for _ in range(n_symbols ** (n + k)))
        system = td.ShiftLikeSystem(n_symbols, n, k, gamma)
        model = td.shiftlike.to_two_alphabet(system)
        assert model == oracles.shiftlike_two_alphabet(system)
        assert model.kstar == tuple(
            w.to_string() for w in td.all_words(n_symbols, n + k))
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", str(n_symbols ** 3 - 1))
    system = td.ShiftLikeSystem(n_symbols, 1, 2, (0,) * n_symbols ** 3)
    with pytest.raises(td.CapExceededError) as got:
        td.shiftlike.to_two_alphabet(system)
    with pytest.raises(td.CapExceededError) as want:
        oracles.shiftlike_two_alphabet(system)
    assert str(got.value) == str(want.value)


# --- integer fields and entries ---


@pytest.mark.parametrize("fields", [
    (2, 2, 1.5), (2, 2.0, 1), (2.0, 2, 1), (2, True, 1), (2, 2, True),
    (2, 2, Fraction(1)),
])
def test_word_rejects_non_integer_fields(fields):
    with pytest.raises(td.ValidationError, match="must be integers"):
        Word(*fields)


@pytest.mark.parametrize("fields", [
    (2, 2, (0, 1, 1.0, True)), (2, 2, (0, 1, 1, True)), (2, 1, (0, 0.5)),
    (2.0, 1, (0, 1)), (2, True, (0, 1)), (2, 1.0, (0, 1)),
])
def test_code_rejects_non_integer_fields_and_entries(fields):
    with pytest.raises(td.ValidationError, match="integers"):
        td.SlidingBlockCode(*fields)


@pytest.mark.parametrize("fields", [
    (2, 1, 1, (0, 1, 0.5, 1)), (2, 1, 1, (0, 1, True, 1)),
    (2, 1.0, 1, (0, 1, 0, 1)), (2, 1, True, (0, 1, 0, 1)),
    (2.0, 1, 1, (0, 1, 0, 1)),
])
def test_system_rejects_non_integer_fields_and_entries(fields):
    with pytest.raises(td.ValidationError, match="integers"):
        td.ShiftLikeSystem(*fields)


def test_tables_reject_entries_out_of_range():
    cases = [
        (lambda: td.SlidingBlockCode(2, 1, (0, 2)), "phi entry 2 out of range"),
        (lambda: td.SlidingBlockCode(3, 1, (0, -1, 2)),
         "phi entry -1 out of range"),
        (lambda: td.ShiftLikeSystem(2, 1, 1, (0, 1, 2, 0)),
         "gamma entry 2 out of range"),
        (lambda: td.ShiftLikeSystem(2, 2, 1, (3,) * 7 + (4,)),
         "gamma entry 4 out of range"),
    ]
    for call, message in cases:
        with pytest.raises(td.ValidationError) as info:
            call()
        assert str(info.value) == message


def test_from_digits_does_not_truncate():
    for digits in ([0.9, 1.7], ["1", True], [1, False], [Fraction(1)]):
        with pytest.raises(td.ValidationError,
                           match="^word digits must be integers$"):
            Word.from_digits(2, digits)
    assert Word.from_digits(2, np.array([0, 1])) == w2("01")


# --- packed integers against the Word oracles ---


def outcome(call, *args, **kwargs):
    """The result, or the type and message of the library error raised."""
    try:
        return call(*args, **kwargs)
    except td.TractableDynError as exc:
        return type(exc), str(exc)


def random_prefix(rng, n_symbols, needed):
    length = max(0, needed + rng.randint(-2, 5))
    if rng.random() < 0.1:
        n_symbols += 1
    return random_word(rng, length, n_symbols)


def corrupted(rng, track):
    """The track with one word replaced by a random word of its length."""
    track = list(track)
    if len(track) > 1 and rng.random() < 0.5:
        at = rng.randrange(len(track))
        track[at] = random_word(rng, track[at].length, track[at].n_symbols)
    return track


@pytest.mark.parametrize("n_symbols", [2, 3])
def test_packed_dynamics_match_the_word_oracles(n_symbols):
    rng = random.Random(60 + n_symbols)
    raised = 0
    for window in range(1, 5):
        for _ in range(5):
            phi = tuple(rng.randrange(n_symbols)
                        for _ in range(n_symbols ** window))
            code = td.SlidingBlockCode(n_symbols, window, phi)
            n = rng.randint(1, 2)
            system = td.derive_gamma(code, n)
            assert system == oracles.derive_gamma(code, n)
            word = random_prefix(rng, n_symbols, window + 3)
            assert outcome(code.apply, word) == \
                outcome(oracles.word_apply, code, word)
            for k in sorted({system.k, window, window + 1}):
                if k > system.k:
                    system = td.ShiftLikeSystem(
                        n_symbols, n, k, oracles.rounded_table(code, n, k))
                if rng.random() < 0.2:
                    gamma = list(system.gamma)
                    gamma[rng.randrange(len(gamma))] = \
                        rng.randrange(n_symbols ** n)
                    system = td.ShiftLikeSystem(n_symbols, n, k, tuple(gamma))
                depth = rng.randint(0, 6)
                checks = []
                prefix = random_prefix(rng, n_symbols, n + k + depth * k)
                checks.append((td.apply_g, oracles.apply_g, system, prefix))
                checks.append((td.code_R, oracles.code_R, system, prefix,
                               depth))
                prefix = random_prefix(rng, n_symbols,
                                       n + k + depth * (window - 1))
                checks.append((td.code_R, oracles.code_R, code, prefix,
                               depth, n, k))
                checks.append((td.shadow_Q, oracles.shadow_Q, code, system,
                               prefix, depth))
                coding = outcome(td.code_R, code, prefix, depth, n=n, k=k)
                if isinstance(coding, list):
                    checks.append((td.decode_H, oracles.decode_H, system,
                                   corrupted(rng, coding)))
                for library, oracle, *args in checks:
                    got = outcome(library, *args)
                    assert got == outcome(oracle, *args)
                    raised += isinstance(got, tuple)
    assert raised >= 20


def test_packed_dynamics_build_only_the_words_they_return(monkeypatch):
    rng = random.Random(71)
    code = td.SlidingBlockCode(3, 3, tuple(rng.randrange(3)
                                           for _ in range(27)))
    prefix = random_word(rng, 40, 3)
    built = []
    post_init = Word.__post_init__

    def counting(word):
        built.append(word)
        post_init(word)
    monkeypatch.setattr(Word, "__post_init__", counting)
    system = td.derive_gamma(code, 2)
    assert built == []
    depth = 6
    for source, kwargs in ((system, {}), (code, {"n": 2, "k": 2})):
        coding = td.code_R(source, prefix, depth, **kwargs)
        assert len(built) == depth + 1
        built.clear()
    decoded = td.decode_H(system, coding)
    assert len(built) == 1 and built[0] is decoded
    built.clear()
    stepped = td.apply_g(system, prefix)
    assert len(built) == 1 and built[0] is stepped

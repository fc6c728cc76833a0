import numpy as np
import pytest

from qutrit_qkd.linalg import ValidationError
from qutrit_qkd.tritcrypt import ALPHABET, decode, decrypt, encode, encrypt
from qutrit_qkd.trits import as_trits, format_trits, parse_trits

# Reference message vectors: plaintext, pad, and the resulting cipher stream.
MESSAGE = "THE RESULT IS FORTY TWO"
CODE = ("201021011222122011200202102201222022200222012112122201220222201211112")
KEY = ("022001122110002100222201212222122212001221212002201121210212222122222")
CIPHER = ("220022100002121111122100011120011201201110221111020022100101120000001")
INTERCEPTED = "YIJCQNRJEPETTMZNGIJKPAB"


class TestCodec:
    @pytest.mark.parametrize("char,group", [
        ("T", "201"), ("H", "021"), ("E", "011"), ("A", "000"),
        (" ", "222"), ("Y", "220"), ("Z", "221"),
    ])
    def test_encode_examples(self, char, group):
        assert format_trits(encode(char)) == group

    @pytest.mark.parametrize("group,char", [
        ("201", "T"), ("222", " "), ("220", "Y"), ("000", "A"),
    ])
    def test_decode_examples(self, group, char):
        assert decode(parse_trits(group)) == char

    def test_full_message_code(self):
        assert format_trits(encode(MESSAGE)) == CODE

    def test_round_trip_full_alphabet(self):
        assert decode(encode(ALPHABET)) == ALPHABET

    def test_injective(self):
        groups = {format_trits(encode(c)) for c in ALPHABET}
        assert len(groups) == 27

    def test_lowercase_folded(self):
        assert np.array_equal(encode("forty two"), encode("FORTY TWO"))

    def test_invalid_character(self):
        with pytest.raises(ValidationError):
            encode("HELLO!")

    def test_decode_length_check(self):
        with pytest.raises(ValidationError):
            decode((0, 1))

    def test_empty(self):
        assert encode("").size == 0
        assert decode(()) == ""


class TestCipher:
    @pytest.mark.parametrize("code,key,cipher", [
        ("201", "022", "220"),
        ("021", "001", "022"),
    ])
    def test_encrypt_examples(self, code, key, cipher):
        assert format_trits(encrypt(parse_trits(code), parse_trits(key))) == cipher

    def test_zero_key_identity(self):
        code = parse_trits("2010210112")
        assert np.array_equal(encrypt(code, np.zeros(10, dtype=np.int8)), code)

    def test_decrypt_examples(self):
        assert format_trits(decrypt(parse_trits("220"), parse_trits("022"))) == "201"
        key = parse_trits("120")
        assert format_trits(decrypt(key, key)) == "000"

    def test_reference_cipher_stream(self):
        cipher = encrypt(parse_trits(CODE), parse_trits(KEY))
        assert format_trits(cipher) == CIPHER

    def test_intercepted_stream_decodes_to_garbage(self):
        assert decode(parse_trits(CIPHER)) == INTERCEPTED

    def test_reference_decryption(self):
        code = decrypt(parse_trits(CIPHER), parse_trits(KEY))
        assert format_trits(code) == CODE
        assert decode(code) == MESSAGE

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            encrypt((0, 1, 2), (0, 1))
        with pytest.raises(ValidationError):
            decrypt((0, 1, 2), (0, 1))

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            text = "".join(rng.choice(list(ALPHABET), size=n))
            key = rng.integers(0, 3, size=3 * n, dtype=np.int8)
            assert decode(decrypt(encrypt(encode(text), key), key)) == text

    def test_digitwise_uniformity(self):
        # fixing a code trit, the three key values hit each cipher value once
        for c in range(3):
            ciphers = {int(encrypt([c], [k])[0]) for k in range(3)}
            assert ciphers == {0, 1, 2}


class TestTritStrings:
    def test_parse_accepts_whitespace_groups(self):
        assert parse_trits("201 021\n011").tolist() == [2, 0, 1, 0, 2, 1, 0, 1, 1]

    def test_parse_rejects_other_characters(self):
        with pytest.raises(ValidationError):
            parse_trits("20a")

    def test_as_trits_range_check(self):
        with pytest.raises(ValidationError, match=r"^trit value 3 outside \{0, 1, 2\}$"):
            as_trits([0, 3, 1])

    @pytest.mark.parametrize("bad", [255, 256, 257, 2**40])
    def test_as_trits_range_checked_before_int8_cast(self, bad):
        """A value int8 would wrap into 0-2, or below 0, is named as given."""
        with pytest.raises(ValidationError, match=rf"^trit value {bad} outside \{{0, 1, 2\}}$"):
            as_trits([0, 1, bad])
        with pytest.raises(ValidationError, match=rf"^trit value {bad} "):
            format_trits([bad, 2])

    @pytest.mark.parametrize("text, typed", [("015", "5"), ("01a", "a"), ("01é", "é")])
    def test_bad_character_named_as_typed(self, text, typed):
        """Every string reports its first character outside 0-2 the same way."""
        with pytest.raises(ValidationError) as info:
            as_trits(text)
        assert str(info.value) == f"invalid trit character {typed!r}"

    def test_format_grouping(self):
        assert format_trits([2, 0, 1, 0, 2, 1], group=3) == "201 021"

"""padcrypt: a length-hiding one-time-pad cipher over prefix-free codes.

Messages are compressed by a prefix-free code, XORed with one-time-pad key
bits, and padded with fresh random bits to the code's fixed public length,
so every ciphertext is the same size and perfectly secret.

`import padcrypt` loads no submodule: every name, the errors included,
loads its module on first access (PEP 562), so a command that never
touches, say, the verifier never pays for importing it.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(["BitString", "elias_gamma", "elias_gamma_decode"], "bits"),
    **dict.fromkeys(["Ciphertext", "EncryptionRecord", "decrypt", "encrypt",
                     "key_cost", "read_frame", "write_frame"], "cipher"),
    **dict.fromkeys(["MessageSpace", "PrefixCode", "build_huffman", "decode_prefix",
                     "encode", "load_codebook", "load_space", "save_codebook",
                     "trim_code", "wrap_external"], "codec"),
    **dict.fromkeys(["BoundViolation", "CodebookFormatError", "DecryptionFailed",
                     "EmptyCompressorOutput", "EnumerationTooLarge", "InvalidCode",
                     "InvalidLength", "InvalidSpace", "KeyExhausted",
                     "NondeterministicCompressor", "NotACodeword", "NotInCodebook",
                     "PadcryptError", "PoolFormatError", "WireFormatError"], "errors"),
    **dict.fromkeys(["KeyPool", "generate_pool"], "keystore"),
    **dict.fromkeys(["OsRandomSource", "RandomSource", "SeededRandomSource"], "rng"),
    **dict.fromkeys(["BoundReport", "LeakReport", "SecrecyReport",
                     "UniformityReport", "bound_report", "empirical_uniformity",
                     "exact_secrecy_oracle", "key_discipline_equivalence",
                     "leak_mutual_information", "shannon_entropy"], "verify"),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})

"""padcrypt: a length-hiding one-time-pad cipher over prefix-free codes.

Messages are compressed by a prefix-free code, XORed with one-time-pad key
bits, and padded with fresh random bits to the code's fixed public length,
so every ciphertext is the same size and perfectly secret.
"""

from .bits import BitString, elias_gamma, elias_gamma_decode
from .cipher import (
    Ciphertext,
    EncryptionRecord,
    decrypt,
    encrypt,
    key_cost,
    read_frame,
    write_frame,
)
from .codec import (
    ExternalCompressor,
    MessageSpace,
    PrefixCode,
    build_huffman,
    decode_prefix,
    encode,
    load_codebook,
    save_codebook,
    trim_code,
    wrap_external,
)
from .errors import (
    CodebookFormatError,
    DecryptionFailed,
    DegenerateSpace,
    EmptyCompressorOutput,
    EnumerationTooLarge,
    InvalidCode,
    InvalidLength,
    InvalidSpace,
    KeyExhausted,
    NondeterministicCompressor,
    NotACodeword,
    NotInCodebook,
    PadcryptError,
    PoolFormatError,
    WireFormatError,
)
from .keystore import KeyPool, generate_pool
from .rng import OsRandomSource, RandomSource, SeededRandomSource
from .verify import (
    BoundReport,
    LeakReport,
    SecrecyReport,
    UniformityReport,
    bound_report,
    empirical_uniformity,
    exact_secrecy_oracle,
    key_discipline_equivalence,
    leak_mutual_information,
    shannon_entropy,
)

__version__ = "0.1.0"

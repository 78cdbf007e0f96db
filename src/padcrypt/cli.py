"""Command-line front door: keygen, build-code, encrypt, decrypt, verify,
report, audit.

Thin adapters only: every check and transform lives in the library modules.
Exit codes: 0 success, 2 error (machine-parsable ERROR line on stderr),
3 leaky verdict from `verify`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import PadcryptError

# Each command imports the library modules it runs inside its own function,
# so a cold call loads only those: `audit` never loads the codec, and only
# `verify` and `report` load the verifier.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .codec import ExternalCompressor, MessageSpace, PrefixCode
    from .rng import RandomSource

KEY_DIR_ENV = "PADCRYPT_KEY_DIR"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_LEAKY = 3


# --- input formats -------------------------------------------------------

def parse_space_file(text: str) -> MessageSpace:
    """Message-space definition: one `<message> <num/den>` pair per line.

    A message is either a JSON-quoted UTF-8 string, a hex string, or `-`
    for the empty message.  Blank lines and `#` comments are skipped.
    """
    from fractions import Fraction

    from .codec import MessageSpace

    messages: list[bytes] = []
    probs: list[Fraction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith('"'):
                import json  # only here: hex-only space files never load it

                end = line.rindex('"')
                msg = json.loads(line[:end + 1]).encode()
                prob_token = line[end + 1:].strip()
            else:
                token, prob_token = line.split(None, 1)
                msg = b"" if token == "-" else bytes.fromhex(token)
            probs.append(Fraction(prob_token.strip()))
            messages.append(msg)
        except (ValueError, ZeroDivisionError) as exc:
            raise PadcryptError(f"space file line {lineno}: {exc}") from None
    return MessageSpace(messages, probs)


def make_rng(args: argparse.Namespace) -> RandomSource:
    """The `--rng` source; a seeded one needs `--insecure-test`, because its
    bits are predictable from the seed."""
    from .rng import OsRandomSource, SeededRandomSource

    mode = args.rng
    if mode == "os":
        return OsRandomSource()
    if mode.startswith("seeded:"):
        try:
            seed = int(mode.split(":", 1)[1])
        except ValueError:
            pass
        else:
            if not args.insecure_test:
                raise PadcryptError(
                    f"seeded rng for {args.command} requires --insecure-test")
            return SeededRandomSource(seed)
    raise PadcryptError(f"unknown rng mode {mode!r} (use os or seeded:<int>)")


def resolve_key_path(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(KEY_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def shell_compressor(command: str) -> ExternalCompressor:
    import subprocess

    from .codec import ExternalCompressor

    def run(data: bytes) -> bytes:
        proc = subprocess.run(command, shell=True, input=data, capture_output=True)
        if proc.returncode:
            raise PadcryptError(
                f"compressor {command!r} exited with status {proc.returncode}")
        return proc.stdout
    return ExternalCompressor(run, command)


# --- subcommands ---------------------------------------------------------

def cmd_keygen(args: argparse.Namespace) -> int:
    from . import keystore

    rng = make_rng(args)
    pool = keystore.generate_pool(args.nbits, rng)
    pool.save(resolve_key_path(args.out))
    print(f"pool {pool.pool_id}: {args.nbits} bits, cursor 0 -> {args.out}")
    return EXIT_OK


def _build_code(space: MessageSpace, choice: str) -> tuple[PrefixCode, str]:
    from . import codec

    if choice == "huffman":
        return codec.build_huffman(space), "huffman"
    if choice == "trimmed-huffman":
        return codec.trim_code(codec.build_huffman(space), space), "trimmed-huffman"
    if choice.startswith("external:"):
        command = choice.split(":", 1)[1]
        return codec.wrap_external(shell_compressor(command), space), "external"
    raise PadcryptError(f"unknown codec {choice!r}")


def cmd_build_code(args: argparse.Namespace) -> int:
    from . import codec

    space = parse_space_file(Path(args.space).read_text())
    code, name = _build_code(space, args.codec)
    with open(args.out, "w") as f:
        codec.save_codebook(code, f, name)
    print(f"codebook {name}: {len(code.codebook)} messages, l={code.max_len} -> {args.out}")
    return EXIT_OK


def _load_code(path: str) -> tuple[PrefixCode, str]:
    from . import codec

    with open(path) as f:
        return codec.load_codebook(f)


def cmd_encrypt(args: argparse.Namespace) -> int:
    from . import cipher, keystore

    # refused before the pool is read: a seeded pad takes one fixed value
    # for each codeword length, so the frame would show that length
    rng = make_rng(args)
    code, _ = _load_code(args.code)
    pool = keystore.KeyPool.load(resolve_key_path(args.key))
    message = Path(args.infile).read_bytes()
    record = cipher.encrypt(message, code, pool, rng)
    Path(args.out).write_bytes(cipher.write_frame(record, code, rng))
    # only message-independent fields: s or a cursor delta would reveal |codeword|
    print(f"encrypted: l={record.ciphertext.l} bits (pool {record.pool_id}) -> {args.out}")
    return EXIT_OK


def cmd_decrypt(args: argparse.Namespace) -> int:
    from . import cipher, keystore

    code, _ = _load_code(args.code)
    pool = keystore.KeyPool.load(resolve_key_path(args.key))
    frame = Path(args.infile).read_bytes()
    message = cipher.decrypt(cipher.read_frame(frame, code), code, pool)
    Path(args.out).write_bytes(message)
    print(f"decrypted: l={code.max_len} bits (pool {pool.pool_id}) -> {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    max_l = verify.DEFAULT_MAX_L if args.max_l is None else args.max_l
    space = parse_space_file(Path(args.space).read_text())
    code, _ = _load_code(args.code)
    if args.naive_leak_demo:
        print("WARNING: naive mode omits the random padding and is NOT secure;"
              " it exists only to demonstrate the length leak.", file=sys.stderr)
    report = verify.exact_secrecy_oracle(space, code, naive=args.naive_leak_demo,
                                         max_l=max_l)
    if args.report_out:
        with open(args.report_out, "w") as f:
            report.write_text(f)
    if report.perfect:
        print("PERFECT")
        return EXIT_OK
    leak = verify.leak_mutual_information(space, code)
    print("LEAKY")
    print(f"max deviation {report.max_deviation} "
          f"(I(M; length) = {leak.mutual_information:.4f} bits)")
    return EXIT_LEAKY


def cmd_report(args: argparse.Namespace) -> int:
    from . import verify

    space = parse_space_file(Path(args.space).read_text())
    code, name = _load_code(args.code)
    kind = args.kind
    if kind == "auto":
        kind = {"huffman": "huffman", "trimmed-huffman": "trimmed"}.get(name, "generic")
    rep = verify.bound_report(space, code, kind)
    leak = verify.leak_mutual_information(space, code)
    print(f"messages            {len(space)}")
    print(f"entropy_bits        {rep.entropy:.6f}")
    print(f"average_length      {rep.average_length:.6f}")
    print(f"expected_key_bits   {rep.average_length:.6f}")
    print(f"max_length          {rep.max_length}")
    print(f"length_cap          {rep.length_cap}")
    print(f"naive_length_leak   {leak.mutual_information:.6f}")
    print(f"bounds({rep.kind})     {'ok' if rep.ok else 'VIOLATED'}")
    for v in rep.violations:
        print(f"  violation: {v}")
    if rep.ok:
        return EXIT_OK
    print(f"ERROR BoundViolation: {'; '.join(rep.violations)}", file=sys.stderr)
    return EXIT_ERROR


def cmd_audit(args: argparse.Namespace) -> int:
    from . import keystore

    pool = keystore.KeyPool.load(resolve_key_path(args.key))
    print(f"pool_id    {pool.pool_id}")
    print(f"bits       {len(pool.material)}")
    print(f"cursor     {pool.cursor}")
    print(f"remaining  {pool.remaining}")
    return EXIT_OK


# --- dispatch ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padcrypt",
        description="Length-hiding one-time-pad cipher over prefix-free codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a one-time-pad key pool")
    p.add_argument("nbits", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--rng", default="os")
    p.add_argument("--insecure-test", action="store_true",
                   help="allow a seeded rng for key material (tests only)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("build-code", help="build a codebook from a message space")
    p.add_argument("--space", required=True)
    p.add_argument("--codec", default="huffman",
                   help="huffman | trimmed-huffman | external:<command>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("encrypt", help="encrypt one message file to a frame")
    p.add_argument("--code", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rng", default="os")
    p.add_argument("--insecure-test", action="store_true",
                   help="allow a seeded rng for the padding (tests only)")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt one frame back to a message file")
    p.add_argument("--code", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("verify", help="run the exact perfect-secrecy oracle")
    p.add_argument("--space", required=True)
    p.add_argument("--code", required=True)
    # None stands for verify.DEFAULT_MAX_L, read only when `verify` runs
    p.add_argument("--max-l", type=int)
    p.add_argument("--naive-leak-demo", action="store_true",
                   help="omit the random padding (insecure, demo only)")
    p.add_argument("--report-out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="entropy and code-length bound report")
    p.add_argument("--space", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--kind", default="auto",
                   choices=["auto", "huffman", "trimmed", "generic"])
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("audit", help="print a pool's consumption state")
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PadcryptError, OSError, UnicodeDecodeError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: keygen, build-code, encrypt, decrypt, verify,
report, audit.

Thin adapters only: every check and transform lives in the library modules.
Exit codes: 0 success (`--help` included), 2 error (machine-parsable
`ERROR <Name>:` line on stderr, usage errors included), 3 leaky verdict
from `verify`.

Arguments are parsed from the COMMANDS table, not with argparse, whose
import and parser set-up would cost every cold call more than `audit`'s own
work.  Options are spelled in full, as `--name value` or `--name=value`;
abbreviations and the `--` separator are not accepted.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import BoundViolation, PadcryptError

# Each command imports the library modules it runs inside its own function,
# so a cold call loads only those: `audit` never loads the codec, and only
# `verify` and `report` load the verifier.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import TextIO

    from .codec import PrefixCode
    from .keystore import KeyPool

KEY_DIR_ENV = "PADCRYPT_KEY_DIR"

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_LEAKY = 3


def _read(path: str, mode: str = "r") -> "str | bytes":
    """A file's bytes, or for mode "r" its UTF-8 text, whatever the locale."""
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
        return f.read()


def _status_to(out: str) -> "TextIO":
    """stderr if `out` is the file stdout writes to (`--out /dev/stdout`), so
    that file gets the output alone, else stdout.  Ask before `out` is written."""
    try:
        return sys.stderr if os.path.samestat(os.stat(out), os.fstat(1)) else sys.stdout
    except OSError:  # out is not there yet, or stdout is closed
        return sys.stdout


def _write_then_say(out: str, write: "Callable[[], object]", text: str) -> None:
    """Run write(), which puts a command's output at `out`, then print the
    status `text`, with a path's bytes as they were given.

    Once the output is in place the command has done its work (for encrypt
    and decrypt the key is spent), so a line that cannot be written, such as
    to a closed pipe, does not turn the call into a failure.
    """
    status = _status_to(out)
    write()
    if status is None:  # the stream's descriptor was closed when Python started
        return
    try:
        status.flush()
        status.buffer.write(os.fsencode(text + "\n"))
        status.buffer.flush()
    except OSError:
        _drop_buffered(status)


def _drop_buffered(stream: "TextIO") -> None:
    """Point the stream's descriptor at os.devnull, after a write to it
    failed, so that what is still buffered goes there at exit, silently."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def resolve_key_path(path: str) -> str:
    base = os.environ.get(KEY_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# --- subcommands ---------------------------------------------------------

def cmd_keygen(args: SimpleNamespace) -> int:
    from . import keystore
    from .rng import OsRandomSource, SeededRandomSource

    try:
        nbits = int(args.nbits)
    except ValueError:
        raise PadcryptError(f"keygen: nbits takes an integer, not {args.nbits!r}") from None
    if args.rng == "os":
        rng = OsRandomSource()
    else:
        kind, _, seed = args.rng.partition(":")
        try:
            if kind != "seeded":
                raise ValueError(kind)
            seed = int(seed)
        except ValueError:
            raise PadcryptError(
                f"unknown rng mode {args.rng!r} (use os or seeded:<int>)") from None
        # a seeded pool's bits are predictable from the seed
        if not args.insecure_test:
            raise PadcryptError("seeded rng for keygen requires --insecure-test")
        rng = SeededRandomSource(seed)
    pool = keystore.generate_pool(nbits, rng)
    path = resolve_key_path(args.out)
    _write_then_say(path, lambda: pool.save(path),
                    f"pool {pool.pool_id}: {nbits} bits, cursor 0 -> {args.out}")
    return EXIT_OK


def cmd_build_code(args: SimpleNamespace) -> int:
    from . import codec
    from ._files import write_file

    space = codec.load_space(_read(args.space))
    name, colon, command = args.codec.partition(":")
    if name == "external" and colon:
        import subprocess  # only here: no other command runs one

        def compress(data: bytes) -> bytes:
            proc = subprocess.run(command, shell=True, input=data, capture_output=True)
            if proc.returncode:
                raise PadcryptError(
                    f"compressor {command!r} exited with status {proc.returncode}")
            return proc.stdout
        code = codec.wrap_external(compress, space, command)
    elif args.codec in ("huffman", "trimmed-huffman"):
        code = codec.build_huffman(space)
        if name == "trimmed-huffman":
            code = codec.trim_code(code, space)
    else:
        raise PadcryptError(f"unknown codec {args.codec!r}")
    _write_then_say(args.out, lambda: write_file(
        args.out, lambda: codec.save_codebook(code, name).encode()),
        f"codebook {name}: {len(code.codebook)} messages, l={code.max_len} -> {args.out}")
    return EXIT_OK


def _load_inputs(args: SimpleNamespace) -> tuple[PrefixCode, KeyPool, bytes, str]:
    """The codebook, pool and `--in` bytes of encrypt or decrypt, and its
    status line, whose fields do not depend on the message (s or a cursor
    delta would reveal |codeword|).  The pool is refused if `--out` is its
    file, which the output would replace, unspent key and all."""
    from . import codec, keystore

    code, _ = codec.load_codebook(_read(args.code))
    path = resolve_key_path(args.key)
    if os.path.exists(args.out) and os.path.samefile(path, args.out):
        raise PadcryptError(f"{args.command}: --out names the --key pool {args.key}")
    pool = keystore.KeyPool.load(path)
    return code, pool, _read(args.infile, "rb"), (  # "encrypted" or "decrypted"
        f"{args.command}ed: l={code.max_len} bits (pool {pool.pool_id}) -> {args.out}")


def cmd_encrypt(args: SimpleNamespace) -> int:
    from . import cipher
    from ._files import write_file
    from .rng import OsRandomSource

    code, pool, message, status = _load_inputs(args)
    # always the OS source: a seeded pad would take one fixed value for each
    # codeword length, so the frame would show that length; --out is opened
    # before encrypt takes a key bit, so an unwritable path spends none
    rng = OsRandomSource()
    _write_then_say(args.out, lambda: write_file(args.out, lambda: cipher.write_frame(
        cipher.encrypt(message, code, pool, rng), code, rng)), status)
    return EXIT_OK


def cmd_decrypt(args: SimpleNamespace) -> int:
    from . import cipher
    from ._files import write_file

    code, pool, blob, status = _load_inputs(args)
    # parsed before --out is opened: a malformed frame leaves --out untouched,
    # and a FIFO there, which the open would wait on, unopened
    ciphertext = cipher.read_frame(blob, code)
    _write_then_say(args.out, lambda: write_file(
        args.out, lambda: cipher.decrypt(ciphertext, code, pool)), status)
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    from . import codec, verify

    space = codec.load_space(_read(args.space))
    code, _ = codec.load_codebook(_read(args.code))
    if args.naive_leak_demo:
        print("WARNING: naive mode omits the random padding and is NOT secure;"
              " it exists only to demonstrate the length leak.", file=sys.stderr)
    report = verify.exact_secrecy_oracle(space, code, naive=args.naive_leak_demo)
    if report.perfect:
        verdict = "PERFECT"
    else:
        leak = verify.leak_mutual_information(space, code)
        verdict = (f"LEAKY\nmax deviation {report.max_deviation} "
                   f"(I(M; length) = {leak.mutual_information:.4f} bits)")
    if args.report_out:
        from ._files import write_file

        _write_then_say(args.report_out, lambda: write_file(
            args.report_out, lambda: report.text().encode()), verdict)
    else:
        print(verdict)
    return EXIT_OK if report.perfect else EXIT_LEAKY


def cmd_report(args: SimpleNamespace) -> int:
    from . import codec, verify

    space = codec.load_space(_read(args.space))
    code, name = codec.load_codebook(_read(args.code))
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
    if not rep.ok:
        raise BoundViolation("; ".join(rep.violations))
    return EXIT_OK


def cmd_audit(args: SimpleNamespace) -> int:
    from . import keystore

    pool = keystore.KeyPool.load(resolve_key_path(args.key))
    print(f"pool_id    {pool.pool_id}")
    print(f"bits       {len(pool.material)}")
    print(f"cursor     {pool.cursor}")
    print(f"remaining  {pool.remaining}")
    return EXIT_OK


# --- dispatch ------------------------------------------------------------

# An option's entry is its default, REQUIRED, or `bool` for a flag, which
# defaults to False.  A name without dashes is a positional argument, whose
# entry is REQUIRED.  Every value is the string given; a command converts it.
REQUIRED = object()

COMMANDS = {
    "keygen": (cmd_keygen, "generate a one-time-pad key pool",
               {"nbits": REQUIRED, "--out": REQUIRED, "--rng": "os", "--insecure-test": bool}),
    "build-code": (cmd_build_code, "build a codebook from a message space",
                   {"--space": REQUIRED, "--codec": "huffman", "--out": REQUIRED}),
    "encrypt": (cmd_encrypt, "encrypt one message file to a frame",
                {"--code": REQUIRED, "--key": REQUIRED, "--in": REQUIRED, "--out": REQUIRED}),
    "decrypt": (cmd_decrypt, "decrypt one frame back to a message file",
                {"--code": REQUIRED, "--key": REQUIRED, "--in": REQUIRED, "--out": REQUIRED}),
    "verify": (cmd_verify, "run the exact perfect-secrecy oracle",
               {"--space": REQUIRED, "--code": REQUIRED, "--naive-leak-demo": bool,
                "--report-out": None}),
    "report": (cmd_report, "entropy and code-length bound report",
               {"--space": REQUIRED, "--code": REQUIRED}),
    "audit": (cmd_audit, "print a pool's consumption state", {"--key": REQUIRED}),
}
_HELP = ("-h", "--help")


def _dest(name: str) -> str:
    """The attribute an option's value is stored under."""
    return "infile" if name == "--in" else name.lstrip("-").replace("-", "_")


def _usage_word(name: str, spec: object) -> str:
    if not name.startswith("-"):
        return name.upper()
    if spec is bool:
        return f"[{name}]"
    word = f"{name} {_dest(name).upper()}"
    return word if spec is REQUIRED else f"[{word}]"


def _usage(command: "str | None" = None) -> str:
    """Help text for the program, or for one command, built from COMMANDS."""
    if command is not None:
        _, summary, options = COMMANDS[command]
        words = " ".join(_usage_word(name, spec) for name, spec in options.items())
        return f"usage: padcrypt {command} {words}\n\n{summary}"
    width = max(map(len, COMMANDS))
    lines = [f"  {name:<{width}}  {summary}" for name, (_, summary, _) in COMMANDS.items()]
    return "\n".join([
        "usage: padcrypt <command> [options]", "",
        "Length-hiding one-time-pad cipher over prefix-free codes.", "",
        "commands:", *lines, "",
        "Options are spelled in full, as --name value or --name=value.",
        "Run `padcrypt <command> --help` for a command's options."])


def _print_help(args: SimpleNamespace) -> int:
    print(_usage(args.command))
    return EXIT_OK


def parse_args(argv: "list[str]") -> SimpleNamespace:
    """The command named by `argv[0]` and its options, from COMMANDS.

    Options are spelled in full, as `--name value` or `--name=value`; there
    are no abbreviations and no `--` separator.  `-h`/`--help` selects
    `_print_help`.  Every usage error is a PadcryptError.
    """
    if not argv:
        raise PadcryptError(f"no command given (one of {', '.join(COMMANDS)})")
    command, tokens = argv[0], iter(argv[1:])
    if command in _HELP:
        return SimpleNamespace(command=None, func=_print_help)
    if command not in COMMANDS:
        raise PadcryptError(
            f"unknown command {command!r} (one of {', '.join(COMMANDS)})")
    func, _, options = COMMANDS[command]
    positionals = [name for name in options if not name.startswith("-")]
    values = {name: False if spec is bool else spec for name, spec in options.items()}
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(command=command, func=_print_help)
        if not token.startswith("--"):
            if not positionals:
                raise PadcryptError(f"{command}: unexpected argument {token!r}")
            name = positionals.pop(0)
        else:
            name, eq, token = token.partition("=")
            if name not in options:
                raise PadcryptError(f"{command}: unknown option {name}")
            if options[name] is bool:
                if eq:
                    raise PadcryptError(f"{command}: {name} takes no value")
                values[name] = True
                continue
            if not eq:
                token = next(tokens, None)
                if token is None:
                    raise PadcryptError(f"{command}: {name} needs a value")
        values[name] = token
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise PadcryptError(f"{command}: missing {', '.join(missing)}")
    return SimpleNamespace(command=command, func=func,
                           **{_dest(name): value for name, value in values.items()})


def main(argv: "list[str] | None" = None) -> int:
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            return args.func(args)
        finally:
            # what the command printed comes before any ERROR line, and a
            # stdout that cannot take it is an error like any other, which
            # replaces the command's own: one ERROR line either way
            if sys.stdout is not None:
                try:
                    sys.stdout.flush()
                except OSError:
                    _drop_buffered(sys.stdout)
                    raise
    except (PadcryptError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

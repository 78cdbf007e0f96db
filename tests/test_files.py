import os
import threading

from padcrypt._files import write_file


def test_two_threads_writing_one_path_never_mix_their_bytes(tmp_path):
    # each call has a temp file of its own: with one shared name, one
    # thread's rename took the other's file away (FileNotFoundError), or the
    # renamed file held both threads' bytes
    path = tmp_path / "out"
    payloads = [bytes([i]) * 65536 for i in (1, 2)]
    seen, errors = set(), []
    start = threading.Barrier(2)

    def writer(payload):
        start.wait()
        try:
            for _ in range(200):
                write_file(path, lambda: payload)
                seen.add(path.read_bytes())
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert seen <= set(payloads)
    assert os.listdir(tmp_path) == ["out"]

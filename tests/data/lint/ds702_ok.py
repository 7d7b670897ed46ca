"""DS702 clean pass: with-managed, closed, or handed-off handles."""

from pathlib import Path


def dump_samples(records, path):
    with Path(path).open("w") as fh:
        for record in records:
            fh.write(record)
    return len(records)


def append_line(path, line):
    fh = open(path, "a")
    fh.write(line)
    fh.close()


def open_log(path):
    # A lifecycle API by name: the caller owns the returned handle.
    fh = Path(path).open("a")
    return fh

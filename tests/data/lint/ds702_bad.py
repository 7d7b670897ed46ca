"""DS702 true positives: opened file handles never closed."""

from pathlib import Path


def dump_samples(records, path):
    fh = Path(path).open("w")
    for record in records:
        fh.write(record)
    return len(records)


def read_header(path):
    fh = open(path)
    return fh.readline()

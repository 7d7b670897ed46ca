"""DS301 clean pass: registered literal names and a covered prefix."""

from repro import obs


def record(counter, seconds):
    obs.incr("thermal.model.solves")
    obs.histogram(f"store.{counter}", seconds)

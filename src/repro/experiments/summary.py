"""One-command reproduction report: paper value vs measured, per figure.

Recomputes the headline metric of every figure (shortened transients for
Figures 11-13) and prints them next to the paper's published values —
the quantitative core of EXPERIMENTS.md, regenerated live.

Sibling figures are obtained through the experiment registry.  When an
artifact store is supplied (``darksilicon summary --store DIR``, or a
``batch`` run), each figure is served from its cached artifact instead
of being recomputed — a warm store makes the summary nearly free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.experiments.common import format_table
from repro.experiments.registry import (
    ExperimentSpec,
    duration_param,
    register,
)
from repro.io import PayloadSerializable
from repro.units import to_ghz


@dataclass(frozen=True)
class SummaryResult(PayloadSerializable):
    """(figure, metric, paper, measured) rows."""

    entries: tuple[tuple[str, str, str, str], ...]

    def rows(self):
        """The comparison rows."""
        return [list(e) for e in self.entries]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(("figure", "metric", "paper", "measured"), self.rows())


def _sibling(name: str, store: Any, force: bool, **overrides: Any) -> Any:
    """One sibling figure's result: from the store when warm, else run.

    The parameters are the sibling's schema defaults plus ``overrides``
    — exactly the cell a ``batch`` run stores, so a summary following a
    batch with matching parameters recomputes nothing.

    Raises:
        ReproError: naming the sibling and its error when it fails.
    """
    from repro.experiments import registry
    from repro.store.batch import BatchCell, BatchRunner

    cell = BatchCell(name, registry.get(name).resolve(overrides))
    (outcome,) = BatchRunner(store).run([cell], force=force)
    if not outcome.ok:
        raise ReproError(f"summary: sibling {name!r} failed: {outcome.error}")
    return outcome.result


def run(
    duration: float = 2.0,
    store: Any = None,
    force: bool = False,
) -> SummaryResult:
    """Recompute every figure's headline metric.

    Args:
        duration: seconds simulated for the boosting figures (the paper
            runs 100 s; a short warm-started window preserves the
            averages).
        store: optional :class:`repro.store.ArtifactStore`; sibling
            figures are served from it when their artifacts exist and
            written to it when they do not.
        force: recompute siblings even when the store has them.
    """
    entries: list[tuple[str, str, str, str]] = []

    f3 = _sibling("fig3", store, force)
    entries.append(
        ("fig3", "x264 1t @4GHz 22nm [W]", "~18", f"{f3.power_at_4ghz:.1f}")
    )

    f4 = _sibling("fig4", store, force)
    idx = f4.thread_counts.index(64)
    entries.append(
        (
            "fig4",
            "speed-up @64t (x264/bodytrack/canneal)",
            "3.0 / 2.4 / 1.7",
            f"{f4.curves['x264'][idx]:.2f} / {f4.curves['bodytrack'][idx]:.2f} "
            f"/ {f4.curves['canneal'][idx]:.2f}",
        )
    )

    f5 = _sibling("fig5", store, force)
    entries.append(
        (
            "fig5",
            "max dark silicon @220W / @185W [%]",
            "~37 / ~46",
            f"{100 * f5.max_dark_fraction(f5.tdp_optimistic):.0f} / "
            f"{100 * f5.max_dark_fraction(f5.tdp_pessimistic):.0f}",
        )
    )

    f6 = _sibling("fig6", store, force)
    by6 = {n.node: n for n in f6.nodes}
    entries.append(
        (
            "fig6",
            "avg dark reduction 16nm / 11nm [p.p.]",
            "32 / 40 (see EXPERIMENTS.md)",
            f"{100 * by6['16nm'].average_reduction:.1f} / "
            f"{100 * by6['11nm'].average_reduction:.1f}",
        )
    )

    f7 = _sibling("fig7", store, force)
    by7 = {n.node: n for n in f7.nodes}
    entries.append(
        (
            "fig7",
            "max DVFS gain 16nm / 11nm [%]",
            "32 / 38",
            f"{100 * by7['16nm'].max_gain:.0f} / {100 * by7['11nm'].max_gain:.0f}",
        )
    )

    f8 = _sibling("fig8", store, force)
    entries.append(
        (
            "fig8",
            "safe cores contiguous -> patterned",
            "52 -> 60",
            f"{f8.contiguous_safe.active_cores} -> {f8.patterned.active_cores}",
        )
    )

    f9 = _sibling("fig9", store, force)
    entries.append(
        ("fig9", "DsRem/TDPmap average speed-up", "~2x", f"{f9.average_speedup:.2f}x")
    )

    f10 = _sibling("fig10", store, force)
    gain = f10.node("8nm").average_gips / f10.node("11nm").average_gips - 1
    entries.append(
        ("fig10", "TSP perf increment 11nm -> 8nm [%]", "~60", f"{100 * gain:.0f}")
    )

    f11 = _sibling("fig11", store, force, duration=duration)
    entries.append(
        (
            "fig11",
            "avg GIPS boosting vs constant",
            "258.1 vs 245.3 (+5.2 %)",
            f"{f11.boosting.average_gips:.1f} vs {f11.constant.average_gips:.1f} "
            f"({100 * f11.boosting_gain:+.1f} %)",
        )
    )

    f13 = _sibling("fig13", store, force, duration=duration)
    entries.append(
        (
            "fig13",
            "min constant (V, f) across cases",
            "0.92 V / 3.0 GHz (STC)",
            f"{f13.min_voltage:.2f} V / {to_ghz(f13.min_frequency):.1f} GHz (STC)",
        )
    )

    f14 = _sibling("fig14", store, force)
    canneal = f14.by_app("canneal")
    swaptions = f14.by_app("swaptions")
    entries.append(
        (
            "fig14",
            "NTC/STC-1t energy: swaptions, canneal",
            "NTC wins, NTC loses",
            f"{swaptions['ntc'].energy_kj / swaptions['stc-1t'].energy_kj:.2f}x, "
            f"{canneal['ntc'].energy_kj / canneal['stc-1t'].energy_kj:.2f}x",
        )
    )

    return SummaryResult(entries=tuple(entries))


SPEC = register(
    ExperimentSpec(
        name="summary",
        title="Paper-vs-measured headline metrics across all figures",
        module=__name__,
        runner=run,
        params=(
            duration_param(
                5.0, 2.0, "transient seconds for the boosting figures"
            ),
        ),
        result_type=SummaryResult,
        store_aware=True,
    )
)

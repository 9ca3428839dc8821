"""Per-figure experiment drivers.

One function per table/figure in the paper's evaluation.  Each returns an
:class:`ExperimentResult` holding (a) machine-readable metrics, each paired
with the value the paper reports, and (b) a rendered text report with the
same rows/series the paper presents.  :data:`EXPERIMENTS` is the one
table of experiments -- id, the inputs its driver reads, the driver --
that both ``run_all_experiments`` (what EXPERIMENTS.md is generated from)
and ``python -m repro reproduce`` run through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.congestion import congestion_population_stats
from repro.core.dualstack import paired_rtt_differences
from repro.core.ecdf import ECDF
from repro.core.granularity import compare_granularity
from repro.core.heatmap import build_heatmap, collect_lifetime_increase_points
from repro.core.inflation import pair_inflation
from repro.core.linkclass import LinkClass, LinkClassifier, LinkMediumClass
from repro.core.localization import LocalizationResult, localize_congestion
from repro.core.loss import loss_population_summary
from repro.core.sharedinfra import shared_infrastructure_study
from repro.core.overhead import congestion_overhead
from repro.core.ownership import OwnershipInference, infer_ownership
from repro.core.routechange import analyze_timeline, as_path_pair_count
from repro.core.rttstats import memoize_percentiles, path_percentiles
from repro.core.suboptimal import suboptimal_prevalence
from repro.core.summary import dataset_summary
from repro.datasets.longterm import LongTermConfig, LongTermDataset, build_longterm_dataset
from repro.datasets.shortterm import SegmentSeries, ShortTermPingDataset, ShortTermTraceDataset
from repro.harness.report import render_ecdf, render_heatmap, render_table
from repro.measurement.platform import MeasurementPlatform
from repro.net.asn import ASN
from repro.net.ip import IPAddress, IPVersion
from repro.obs import trace as obs_trace

__all__ = [
    "Metric",
    "ExperimentResult",
    "experiment_table1",
    "experiment_fig1",
    "experiment_fig2",
    "experiment_fig3",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_congestion_norm",
    "experiment_localization",
    "experiment_link_classification",
    "experiment_fig9",
    "experiment_fig10a",
    "experiment_fig10b",
    "experiment_loss",
    "experiment_sharedinfra",
    "ExperimentInputs",
    "Experiment",
    "EXPERIMENTS",
    "run_experiments",
    "run_all_experiments",
]


@dataclass
class Metric:
    """One measured quantity next to the paper's value."""

    name: str
    paper: Optional[float]
    measured: float
    unit: str = ""

    def row(self) -> Tuple[str, str, str]:
        """(name, paper, measured) strings for tabulation."""
        paper = "n/a" if self.paper is None else f"{self.paper:g}{self.unit}"
        return (self.name, paper, f"{self.measured:.4g}{self.unit}")


@dataclass
class ExperimentResult:
    """Outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    metrics: List[Metric] = field(default_factory=list)
    report: str = ""

    def metric(self, name: str) -> Metric:
        """Look up a metric by name.

        Raises:
            KeyError: Unknown metric name.
        """
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"no metric {name!r} in {self.experiment_id}")

    def comparison_table(self) -> str:
        """The paper-vs-measured table."""
        return render_table(
            ("metric", "paper", "measured"), [metric.row() for metric in self.metrics]
        )

    def render(self) -> str:
        """Full text report."""
        header = f"== {self.experiment_id}: {self.title} =="
        parts = [header, self.comparison_table()]
        if self.report:
            parts.append(self.report)
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Section 2: the data sets
# ----------------------------------------------------------------------

def experiment_table1(dataset: LongTermDataset) -> ExperimentResult:
    """Table 1: traceroute completeness summary."""
    summaries = dataset_summary(dataset)
    s4, s6 = summaries[IPVersion.V4], summaries[IPVersion.V6]
    metrics = [
        Metric("complete AS-level v4", 70.30, 100 * s4.complete_as_fraction, "%"),
        Metric("complete AS-level v6", 64.03, 100 * s6.complete_as_fraction, "%"),
        Metric("missing AS-level v4", 1.58, 100 * s4.missing_as_fraction, "%"),
        Metric("missing AS-level v6", 3.32, 100 * s6.missing_as_fraction, "%"),
        Metric("missing IP-level v4", 28.12, 100 * s4.missing_ip_fraction, "%"),
        Metric("missing IP-level v6", 32.65, 100 * s6.missing_ip_fraction, "%"),
        Metric("AS-loop rate v4", 2.16, 100 * s4.loop_fraction, "%"),
        Metric("AS-loop rate v6", 5.50, 100 * s6.loop_fraction, "%"),
        Metric("reached destination (all)", 75.0,
               100 * (s4.reached + s6.reached) / max(1, s4.collected + s6.collected), "%"),
    ]
    rows = [
        ("complete AS-level data",
         f"{100 * s4.complete_as_fraction:.2f}% ({s4.complete_as})",
         f"{100 * s6.complete_as_fraction:.2f}% ({s6.complete_as})"),
        ("missing AS-level data",
         f"{100 * s4.missing_as_fraction:.2f}% ({s4.missing_as})",
         f"{100 * s6.missing_as_fraction:.2f}% ({s6.missing_as})"),
        ("missing IP-level data",
         f"{100 * s4.missing_ip_fraction:.2f}% ({s4.missing_ip})",
         f"{100 * s6.missing_ip_fraction:.2f}% ({s6.missing_ip})"),
    ]
    report = render_table(("#traceroutes with", "IPv4", "IPv6"), rows)
    return ExperimentResult("table1", "Traceroute completeness summary", metrics, report)


# ----------------------------------------------------------------------
# Section 3: the illustrative example
# ----------------------------------------------------------------------

def experiment_fig1(
    platform: MeasurementPlatform, dataset: LongTermDataset
) -> ExperimentResult:
    """Figure 1: one long-haul pair with level shifts and a diurnal window.

    Picks the dual-stack pair whose timeline shows the largest baseline
    level shift, and reports its shape: distinct paths, baseline RTT per
    path, and the largest shift magnitude.
    """
    best_key = None
    best_shift = -1.0
    memoize_percentiles(dataset.by_version(IPVersion.V4), 10.0)
    for (src, dst, version), timeline in dataset.timelines.items():
        if version is not IPVersion.V4:
            continue
        baselines = path_percentiles(timeline, 10.0).values()
        if len(baselines) < 2:
            continue
        shift = max(baselines) - min(baselines)
        if shift > best_shift:
            best_shift = shift
            best_key = (src, dst)

    metrics = [Metric("largest level shift observed", 108.0, best_shift, "ms")]
    lines: List[str] = []
    if best_key is not None:
        src_id, dst_id = best_key
        src = dataset.servers[src_id]
        dst = dataset.servers[dst_id]
        lines.append(f"pair: {src.city} -> {dst.city} (AS{src.asn} -> AS{dst.asn})")
        for version in (IPVersion.V4, IPVersion.V6):
            key = (src_id, dst_id, version)
            if key not in dataset.timelines:
                continue
            timeline = dataset.timelines[key]
            p10 = path_percentiles(timeline, 10.0)
            p90 = path_percentiles(timeline, 90.0)
            buckets = timeline.usable_rtts_by_path()
            rows = [
                (f"path#{pid}", f"{p10[pid]:.1f}ms", f"{p90[pid]:.1f}ms",
                 int(np.isfinite(buckets[pid]).sum()))
                for pid in p10
            ]
            lines.append(f"IPv{int(version)} paths (baseline p10, spikes p90, samples):")
            lines.append(render_table(("path", "p10", "p90", "samples"), rows))
    return ExperimentResult(
        "fig1", "Illustrative server pair: level shifts in RTT", metrics, "\n".join(lines)
    )


# ----------------------------------------------------------------------
# Section 4: routing changes
# ----------------------------------------------------------------------

def experiment_fig2(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 2: unique AS paths per timeline; AS-path pairs per pair."""
    metrics: List[Metric] = []
    reports: List[str] = []
    paper_p80 = {IPVersion.V4: 5, IPVersion.V6: 6}
    paper_frac1 = {IPVersion.V4: 18.0, IPVersion.V6: 16.0}
    for version in (IPVersion.V4, IPVersion.V6):
        counts = [
            analyze_timeline(timeline).unique_paths
            for timeline in dataset.by_version(version)
        ]
        ecdf = ECDF(counts)
        metrics.append(
            Metric(f"paths/timeline p80 v{int(version)}", paper_p80[version],
                   ecdf.quantile(0.8))
        )
        metrics.append(
            Metric(f"single-path timelines v{int(version)}", paper_frac1[version],
                   100 * ecdf.at(1.0), "%")
        )
        reports.append(render_ecdf(ecdf, f"AS paths per trace timeline (IPv{int(version)})",
                                   probe_points=(1, 5, 10)))

    paper_pairs_p80 = {IPVersion.V4: 8, IPVersion.V6: 9}
    for version in (IPVersion.V4, IPVersion.V6):
        pair_counts = []
        seen = set()
        for src, dst in dataset.pairs():
            unordered = (min(src, dst), max(src, dst))
            if unordered in seen:
                continue
            seen.add(unordered)
            fwd_key = (src, dst, version)
            rev_key = (dst, src, version)
            if fwd_key not in dataset.timelines or rev_key not in dataset.timelines:
                continue
            pair_counts.append(
                as_path_pair_count(dataset.timelines[fwd_key], dataset.timelines[rev_key])
            )
        ecdf = ECDF(pair_counts)
        metrics.append(
            Metric(f"AS-path pairs/server pair p80 v{int(version)}",
                   paper_pairs_p80[version], ecdf.quantile(0.8))
        )
        reports.append(render_ecdf(ecdf, f"AS-path pairs per server pair (IPv{int(version)})",
                                   probe_points=(1, 8, 9)))
    return ExperimentResult(
        "fig2", "Unique AS paths and AS-path pairs over the study", metrics,
        "\n".join(reports),
    )


def experiment_fig3(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 3: prevalence of popular paths; number of route changes."""
    metrics: List[Metric] = []
    reports: List[str] = []
    for version in (IPVersion.V4, IPVersion.V6):
        stats = [analyze_timeline(timeline) for timeline in dataset.by_version(version)]
        prevalences = [s.popular_prevalence for s in stats if s.popular_path_id is not None]
        prevalence_ecdf = ECDF(prevalences)
        dominant = 100 * prevalence_ecdf.tail_fraction(0.5)
        metrics.append(
            Metric(f"timelines with dominant path (prev>=50%) v{int(version)}",
                   80.0, dominant, "%")
        )
        changes = [s.changes for s in stats]
        changes_ecdf = ECDF(changes)
        metrics.append(
            Metric(f"no-change timelines v{int(version)}",
                   18.0 if version is IPVersion.V4 else 16.0,
                   100 * changes_ecdf.at(0.0), "%")
        )
        metrics.append(
            Metric(f"changes/timeline p90 v{int(version)}", 30.0,
                   changes_ecdf.quantile(0.9))
        )
        reports.append(render_ecdf(prevalence_ecdf,
                                   f"prevalence of popular AS path (IPv{int(version)})",
                                   probe_points=(0.5,)))
        reports.append(render_ecdf(changes_ecdf,
                                   f"route changes per trace timeline (IPv{int(version)})",
                                   probe_points=(0, 30)))
    return ExperimentResult(
        "fig3", "Popular-path prevalence and route-change frequency", metrics,
        "\n".join(reports),
    )


def _heatmap_experiment(
    dataset: LongTermDataset, q: float, experiment_id: str, title: str,
    paper_tail_v4: float, paper_tail_v6: float,
) -> ExperimentResult:
    metrics: List[Metric] = []
    reports: List[str] = []
    paper_tails = {IPVersion.V4: paper_tail_v4, IPVersion.V6: paper_tail_v6}
    for version in (IPVersion.V4, IPVersion.V6):
        points = collect_lifetime_increase_points(dataset.by_version(version), q=q)
        if not points:
            continue
        heatmap = build_heatmap(points)
        increases = ECDF([increase for _, increase in points])
        metrics.append(
            Metric(f"p90 of RTT increase v{int(version)} (10% of paths exceed)",
                   paper_tails[version], increases.quantile(0.9), "ms")
        )
        metrics.append(
            Metric(f"p80 of RTT increase v{int(version)} (20% of paths exceed)",
                   25.0 if q == 10.0 else None, increases.quantile(0.8), "ms")
        )
        # The paper's qualitative headline: among large-increase paths, the
        # short-lived half of lifetimes dominates.
        lifetime_values = np.array([lifetime for lifetime, _ in points])
        median_lifetime = float(np.median(lifetime_values))
        worst_decile = increases.quantile(0.9)
        large = [
            (lifetime, increase)
            for lifetime, increase in points
            if increase >= worst_decile
        ]
        short_share = (
            100.0 * np.mean([lifetime <= median_lifetime for lifetime, _ in large])
            if large else float("nan")
        )
        metrics.append(
            Metric(f"short-lived share of worst-decile paths v{int(version)}",
                   None, short_share, "%")
        )
        reports.append(f"IPv{int(version)}:")
        reports.append(render_heatmap(heatmap))
    return ExperimentResult(experiment_id, title, metrics, "\n".join(reports))


def experiment_fig4(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 4: lifetime x increase-in-10th-percentile heatmaps."""
    return _heatmap_experiment(
        dataset, 10.0, "fig4",
        "AS-path lifetime vs increase in baseline (10th pct) RTT",
        paper_tail_v4=48.3, paper_tail_v6=59.0,
    )


def experiment_fig5(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 5: lifetime x increase-in-90th-percentile heatmaps."""
    return _heatmap_experiment(
        dataset, 90.0, "fig5",
        "AS-path lifetime vs increase in 90th-percentile RTT",
        paper_tail_v4=71.3, paper_tail_v6=79.6,
    )


def experiment_fig6(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 6: prevalence of sub-optimal AS paths at RTT thresholds."""
    metrics: List[Metric] = []
    reports: List[str] = []
    paper = {
        (IPVersion.V4, 20.0): (0.30, 10.0),   # threshold: (prevalence probe, paper %)
        (IPVersion.V6, 20.0): (0.50, 10.0),
        (IPVersion.V4, 100.0): (0.20, 1.1),
        (IPVersion.V6, 100.0): (0.40, 1.3),
    }
    for version in (IPVersion.V4, IPVersion.V6):
        ecdfs = suboptimal_prevalence(dataset.by_version(version))
        for threshold, ecdf in sorted(ecdfs.items()):
            reports.append(
                render_ecdf(
                    ecdf,
                    f"prevalence of sub-optimal paths, >= {threshold:g}ms (IPv{int(version)})",
                    probe_points=(0.2, 0.3, 0.5),
                )
            )
            key = (version, threshold)
            if key in paper:
                probe, paper_pct = paper[key]
                metrics.append(
                    Metric(
                        f"timelines with >= {threshold:g}ms paths at prevalence >= {probe:g} "
                        f"v{int(version)}",
                        paper_pct,
                        100 * ecdf.tail_fraction(probe),
                        "%",
                    )
                )
    return ExperimentResult("fig6", "Sub-optimal AS-path prevalence", metrics,
                            "\n".join(reports))


def experiment_fig7(
    platform: MeasurementPlatform, days: float = 22.0, jobs: int = 1
) -> ExperimentResult:
    """Figure 7: 30-minute vs 3-hour-subsampled increase ECDFs."""
    dataset = build_longterm_dataset(
        platform, LongTermConfig(days=days, period_hours=0.5), jobs=jobs
    )
    metrics: List[Metric] = []
    reports: List[str] = []
    for version in (IPVersion.V4, IPVersion.V6):
        for q, label in ((10.0, "10th"), (90.0, "90th")):
            comparison = compare_granularity(dataset.by_version(version), q=q)
            metrics.append(
                Metric(
                    f"KS distance, {label} pct v{int(version)}", 0.0,
                    comparison.ks_distance(),
                )
            )
            metrics.append(
                Metric(
                    f"median gap, {label} pct v{int(version)}", 0.0,
                    abs(
                        comparison.all_increases.quantile(0.5)
                        - comparison.subsampled_increases.quantile(0.5)
                    ),
                    "ms",
                )
            )
            reports.append(render_ecdf(
                comparison.all_increases,
                f"IPv{int(version)} {label}-pct increases (all 30-min samples)"))
            reports.append(render_ecdf(
                comparison.subsampled_increases,
                f"IPv{int(version)} {label}-pct increases (3h subsample)"))
    return ExperimentResult(
        "fig7", "Granularity sensitivity: 30 minutes vs 3 hours", metrics,
        "\n".join(reports),
    )


# ----------------------------------------------------------------------
# Section 5: congestion
# ----------------------------------------------------------------------

def experiment_congestion_norm(pings: ShortTermPingDataset) -> ExperimentResult:
    """Section 5.1: is consistent congestion the norm?"""
    metrics: List[Metric] = []
    rows = []
    paper_spread = {IPVersion.V4: 9.5, IPVersion.V6: 4.0}
    paper_congested = {IPVersion.V4: 2.0, IPVersion.V6: 0.6}
    for version in (IPVersion.V4, IPVersion.V6):
        stats = congestion_population_stats(pings.by_version(version))
        metrics.append(
            Metric(f"pairs with >10ms p95-p5 spread v{int(version)}",
                   paper_spread[version], 100 * stats.spread_fraction, "%")
        )
        metrics.append(
            Metric(f"pairs with strong diurnal + spread v{int(version)}",
                   paper_congested[version], 100 * stats.congested_fraction, "%")
        )
        rows.append((f"IPv{int(version)}", stats.pairs, stats.spread_exceeds, stats.congested))
    report = render_table(("protocol", "pairs", "spread>10ms", "consistent congestion"), rows)
    return ExperimentResult("congestion-norm", "Congestion is not the norm (Section 5.1)",
                            metrics, report)


def experiment_localization(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> ExperimentResult:
    """Section 5.2: locate the congested segment; score against ground truth."""
    located = persistent = attempted = correct = 0
    for entry, result in _localizations(traces, platform):
        attempted += 1
        if result.end_to_end_diurnal:
            persistent += 1
        if not result.located:
            continue
        located += 1
        key = entry.segment_keys[result.congested_hop]
        congested_keys = set(platform.congestion.congested_keys())
        # Congestion anywhere up to the located hop counts as correct when
        # the located segment is the first truly congested one.
        truly_congested = [
            index for index, segment in enumerate(entry.segment_keys)
            if segment in congested_keys
        ]
        if truly_congested and truly_congested[0] == result.congested_hop:
            correct += 1
    metrics = [
        Metric("pairs with persistent diurnal weeks later", 30.0,
               100 * persistent / attempted if attempted else float("nan"), "%"),
        Metric("localization accuracy vs ground truth", None,
               100 * correct / located if located else float("nan"), "%"),
        Metric("located pairs", None, float(located)),
    ]
    report = (
        f"static-path entries: {attempted}; persistent diurnal: {persistent}; "
        f"located: {located}; ground-truth-correct: {correct}"
    )
    return ExperimentResult("localization", "Locating congestion (Section 5.2)",
                            metrics, report)


def _localizations(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> List[Tuple[SegmentSeries, LocalizationResult]]:
    """Each static-path entry with its localization, once per (corpus,
    platform) pair: Sections 5.2 and 5.3 and Figure 9 all read them."""
    return traces.corpus_product("localization", platform, lambda: [
        (entry, localize_congestion(entry))
        for entry in traces.entries.values()
        if entry.static_path
    ])


def _corpus_ownership(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> OwnershipInference:
    """Ownership inference over the corpus, once per (corpus, platform) pair."""
    return traces.corpus_product(
        "ownership", platform, lambda: _build_ownership(traces, platform))


def _build_ownership(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> OwnershipInference:
    """Ownership inference over the whole traceroute corpus.

    The paper "processed all traceroute paths as a set" -- the label graph
    is built from every measured path, not only the congested pairs'.
    The paths stream into the inference one at a time.
    """
    return infer_ownership(
        _ownership_paths(traces, platform), platform.graph.relationships, passes=3
    )


def _ownership_paths(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> Iterator[List[Tuple[IPAddress, Optional[ASN]]]]:
    """Every path of the ownership corpus as ``(address, asn)`` hops,
    built as it is asked for."""
    for entry in traces.entries.values():
        yield list(zip(entry.hop_addresses, entry.hop_mapped_asn))
    for src, dst in platform.server_pairs():
        for version in (IPVersion.V4, IPVersion.V6):
            # Both the steady-state path and the first alternate: routing
            # changes during a 16-month campaign expose alternates too, and
            # the label graph is much better connected with them.
            for candidate in (0, 1):
                realization = platform.realization(src, dst, version, candidate)
                if realization is None:
                    continue
                yield [(hop.address, hop.mapped_asn) for hop in realization.hops]


def experiment_link_classification(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> ExperimentResult:
    """Section 5.3: classify congested links by ownership inference."""
    ownership = _corpus_ownership(traces, platform)
    ixp_prefixes = list(platform.plan.ixp_lan_v4.values()) + list(
        platform.plan.ixp_lan_v6.values()
    )
    classifier = LinkClassifier(
        relationships=platform.graph.relationships,
        ownership=ownership,
        ixp_prefixes=ixp_prefixes,
    )
    for _, result in _localizations(traces, platform):
        if result.located and result.link is not None:
            classifier.add(*result.link)

    counts = classifier.counts()
    weighted = classifier.weighted_counts()
    media = classifier.medium_counts()
    internal = counts.get(LinkClass.INTERNAL, 0)
    p2p = counts.get(LinkClass.INTERCONNECTION_P2P, 0)
    c2p = counts.get(LinkClass.INTERCONNECTION_C2P, 0)
    unknown = counts.get(LinkClass.UNKNOWN, 0)
    interconnection = p2p + c2p
    weighted_internal = weighted.get(LinkClass.INTERNAL, 0)
    weighted_inter = weighted.get(LinkClass.INTERCONNECTION_P2P, 0) + weighted.get(
        LinkClass.INTERCONNECTION_C2P, 0
    )
    private = media.get(LinkMediumClass.PRIVATE, 0)
    public = media.get(LinkMediumClass.PUBLIC_IXP, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else float("nan")

    metrics = [
        Metric("internal/interconnection count ratio", 1768 / 1121,
               ratio(internal, interconnection)),
        Metric("p2p share of interconnection", 100 * 658 / 1121,
               100 * ratio(p2p, interconnection), "%"),
        Metric("interconnection/internal weighted ratio > 1", None,
               ratio(weighted_inter, max(1, weighted_internal))),
        Metric("private share of congested interconnects", None,
               100 * ratio(private, private + public), "%"),
    ]
    rows = [
        ("internal", internal, weighted.get(LinkClass.INTERNAL, 0)),
        ("interconnection p2p", p2p,
         weighted.get(LinkClass.INTERCONNECTION_P2P, 0)),
        ("interconnection c2p", c2p,
         weighted.get(LinkClass.INTERCONNECTION_C2P, 0)),
        ("unknown", unknown, weighted.get(LinkClass.UNKNOWN, 0)),
        ("private interconnects", private, ""),
        ("public (IXP) interconnects", public, ""),
    ]
    report = render_table(("congested link class", "links", "weighted by pairs"), rows)
    return ExperimentResult(
        "link-classification", "Congested link classification (Section 5.3)",
        metrics, report,
    )


def experiment_fig9(
    traces: ShortTermTraceDataset, platform: MeasurementPlatform
) -> ExperimentResult:
    """Figure 9: density of the congestion overhead."""
    ownership = _corpus_ownership(traces, platform)
    classifier = LinkClassifier(
        relationships=platform.graph.relationships,
        ownership=ownership,
        ixp_prefixes=list(platform.plan.ixp_lan_v4.values())
        + list(platform.plan.ixp_lan_v6.values()),
    )
    groups: Dict[str, List[float]] = {
        "all interconnection": [],
        "all internal": [],
        "US-US interconnection": [],
        "US-US internal": [],
        "transcontinental": [],
    }
    servers = {server.server_id: server for server in platform.measurement_servers()}
    for entry, result in _localizations(traces, platform):
        if not result.located or result.link is None:
            continue
        overhead = congestion_overhead(entry.times_hours, entry.rtt_ms)
        if overhead is None:
            continue
        link = classifier.add(*result.link)
        src = servers.get(entry.src_server_id)
        dst = servers.get(entry.dst_server_id)
        us_us = bool(
            src and dst and src.city.country == "US" and dst.city.country == "US"
        )
        transcontinental = bool(src and dst and src.city.continent != dst.city.continent)
        if link.link_class.is_interconnection:
            groups["all interconnection"].append(overhead)
            if us_us:
                groups["US-US interconnection"].append(overhead)
        elif link.link_class is LinkClass.INTERNAL:
            groups["all internal"].append(overhead)
            if us_us:
                groups["US-US internal"].append(overhead)
        if transcontinental:
            groups["transcontinental"].append(overhead)

    metrics: List[Metric] = []
    rows = []
    for name, values in groups.items():
        if not values:
            rows.append((name, 0, "-", "-", "-"))
            continue
        array = np.asarray(values)
        in_band = 100 * np.mean((array >= 18.0) & (array <= 32.0))
        rows.append(
            (name, len(values), f"{np.median(array):.1f}ms",
             f"{in_band:.0f}%", f"{np.percentile(array, 90):.1f}ms")
        )
    all_located = groups["all interconnection"] + groups["all internal"]
    if all_located:
        array = np.asarray(all_located)
        metrics.append(
            Metric("typical congestion overhead (median)", 25.0,
                   float(np.median(array)), "ms")
        )
        metrics.append(
            Metric("share of overheads in 20-30ms band", 60.0,
                   float(100 * np.mean((array >= 18.0) & (array <= 32.0))), "%")
        )
    us = groups["US-US interconnection"] + groups["US-US internal"]
    if us:
        array = np.asarray(us)
        metrics.append(
            Metric("US-US share in 20-30ms band", 90.0,
                   float(100 * np.mean((array >= 18.0) & (array <= 32.0))), "%")
        )
    if groups["transcontinental"]:
        metrics.append(
            Metric("transcontinental overhead (median)", 60.0,
                   float(np.median(groups["transcontinental"])), "ms")
        )
    report = render_table(
        ("group", "events", "median", "in ~20-30ms band", "p90"), rows
    )
    return ExperimentResult("fig9", "Congestion overhead density", metrics, report)


# ----------------------------------------------------------------------
# Section 6: IPv4 vs IPv6
# ----------------------------------------------------------------------

def experiment_fig10a(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 10a: paired RTT differences between protocols.

    The two populations are built one at a time: the all-pairs ECDF is
    dropped before the same-path one is built, so their buffers are
    never alive together.
    """
    comparison = paired_rtt_differences(dataset)
    all_diffs = comparison.all_diffs
    metrics = [
        Metric("traceroutes with |RTTv4-RTTv6| <= 10ms", 50.0,
               100 * comparison.within_band_fraction(10.0, all_diffs), "%"),
        Metric("pairs where IPv6 saves >= 50ms", 3.7,
               100 * comparison.v6_saves_fraction(50.0), "%"),
        Metric("pairs where IPv4 saves >= 50ms", 8.5,
               100 * comparison.v4_saves_fraction(50.0), "%"),
    ]
    all_report = render_ecdf(all_diffs, "RTTv4 - RTTv6, all paired traceroutes",
                             probe_points=(-50, -10, 10, 50), unit="ms")
    del all_diffs
    same_report = render_ecdf(comparison.same_path_diffs, "RTTv4 - RTTv6, same AS paths",
                              probe_points=(-10, 10), unit="ms")
    report = "\n".join([all_report, same_report])
    return ExperimentResult("fig10a", "IPv4 vs IPv6 paired RTT differences", metrics, report)


def experiment_fig10b(dataset: LongTermDataset) -> ExperimentResult:
    """Figure 10b: RTT inflation over the speed-of-light bound."""
    study = pair_inflation(dataset)
    metrics = [
        Metric("median inflation v4", 3.01, study.median(IPVersion.V4)),
        Metric("median inflation v6", 3.10, study.median(IPVersion.V6)),
        Metric("p90 inflation v4", 5.3, study.ecdf(IPVersion.V4).quantile(0.9)),
        Metric("p90 inflation v6", 5.9, study.ecdf(IPVersion.V6).quantile(0.9)),
    ]
    us_median = study.ecdf(IPVersion.V4, us_only=True).quantile(0.5)
    trans_median = study.ecdf(IPVersion.V4, transcontinental_only=True).quantile(0.5)
    metrics.append(Metric("US-US median inflation v4", None, us_median))
    metrics.append(Metric("transcontinental median inflation v4", None, trans_median))
    report = "\n".join(
        [
            render_ecdf(study.ecdf(IPVersion.V4), "inflation IPv4"),
            render_ecdf(study.ecdf(IPVersion.V6), "inflation IPv6"),
            render_ecdf(study.ecdf(IPVersion.V4, us_only=True), "inflation IPv4 US<->US"),
            render_ecdf(
                study.ecdf(IPVersion.V4, transcontinental_only=True),
                "inflation IPv4 transcontinental",
            ),
        ]
    )
    return ExperimentResult("fig10b", "RTT inflation over cRTT", metrics, report)


# ----------------------------------------------------------------------
# Extensions: the follow-up studies the paper's conclusion calls for
# ----------------------------------------------------------------------

def experiment_loss(pings: ShortTermPingDataset) -> ExperimentResult:
    """Extension: packet loss (Section 8's suggested follow-up).

    Losses on server-to-server paths are rare overall, but on congested
    pairs they concentrate in the busy hours and track the RTT lift.
    """
    metrics: List[Metric] = []
    rows = []
    for version in (IPVersion.V4, IPVersion.V6):
        summary = loss_population_summary(pings.by_version(version))
        metrics.append(
            Metric(f"median loss rate v{int(version)}", None,
                   100 * summary.median_loss_rate, "%")
        )
        metrics.append(
            Metric(f"pairs with busy-hour loss v{int(version)}", None,
                   100 * summary.diurnal_loss_fraction, "%")
        )
        metrics.append(
            Metric(f"loss/RTT correlation on those pairs v{int(version)}", None,
                   summary.median_correlation_diurnal)
        )
        rows.append(
            (f"IPv{int(version)}", summary.pairs,
             f"{100 * summary.median_loss_rate:.2f}%",
             summary.diurnal_loss_pairs,
             f"{summary.median_correlation_diurnal:.2f}")
        )
    report = render_table(
        ("protocol", "pairs", "median loss", "diurnal-loss pairs",
         "median loss/RTT corr"),
        rows,
    )
    return ExperimentResult(
        "ext-loss", "Extension: packet loss follows congestion", metrics, report
    )


def experiment_sharedinfra(dataset: LongTermDataset) -> ExperimentResult:
    """Extension: IPv4/IPv6 infrastructure sharing (Section 8's question)."""
    study = shared_infrastructure_study(dataset)
    metrics = [
        Metric("dual-stack pairs assessed", None, float(study.pairs)),
        Metric("dominant AS paths agree", None,
               100 * study.dominant_match_fraction, "%"),
        Metric("median synchronized-change fraction", None,
               study.median_synchronized_fraction()),
        Metric("median RTT correlation, same dominant path", None,
               study.median_correlation(matching_paths=True)),
        Metric("median RTT correlation, different dominant path", None,
               study.median_correlation(matching_paths=False)),
    ]
    report = (
        "Sharing evidence: pairs whose dominant AS path agrees across\n"
        "protocols show routing changes that fire together and RTT series\n"
        "that move together; pairs on divergent paths do not."
    )
    return ExperimentResult(
        "ext-sharedinfra", "Extension: IPv4/IPv6 infrastructure sharing",
        metrics, report,
    )


# ----------------------------------------------------------------------
# The full reproduction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentInputs:
    """What experiment drivers read; a dataset no driver needs stays ``None``."""

    platform: MeasurementPlatform
    longterm: Optional[LongTermDataset] = None
    pings: Optional[ShortTermPingDataset] = None
    traces: Optional[ShortTermTraceDataset] = None
    jobs: int = 1
    """Worker processes for experiments that build datasets (fig7)."""


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    inputs: Tuple[str, ...]
    """The :class:`ExperimentInputs` datasets the driver reads (the
    platform is always there)."""
    run: Callable[[ExperimentInputs], ExperimentResult]


# Every driver names its ``experiment_*`` function at call time, so a
# rebound module attribute (a test's monkeypatch, a profiler's wrapper)
# is the one that runs.  Order is the paper's, and the order of a full run.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(("longterm",), lambda data: experiment_table1(data.longterm)),
    "fig1": Experiment(
        ("longterm",), lambda data: experiment_fig1(data.platform, data.longterm)),
    "fig2": Experiment(("longterm",), lambda data: experiment_fig2(data.longterm)),
    "fig3": Experiment(("longterm",), lambda data: experiment_fig3(data.longterm)),
    "fig4": Experiment(("longterm",), lambda data: experiment_fig4(data.longterm)),
    "fig5": Experiment(("longterm",), lambda data: experiment_fig5(data.longterm)),
    "fig6": Experiment(("longterm",), lambda data: experiment_fig6(data.longterm)),
    "fig7": Experiment((), lambda data: experiment_fig7(data.platform, jobs=data.jobs)),
    "congestion-norm": Experiment(
        ("pings",), lambda data: experiment_congestion_norm(data.pings)),
    "localization": Experiment(
        ("traces",), lambda data: experiment_localization(data.traces, data.platform)),
    "link-classification": Experiment(
        ("traces",),
        lambda data: experiment_link_classification(data.traces, data.platform)),
    "fig9": Experiment(
        ("traces",), lambda data: experiment_fig9(data.traces, data.platform)),
    "fig10a": Experiment(("longterm",), lambda data: experiment_fig10a(data.longterm)),
    "fig10b": Experiment(("longterm",), lambda data: experiment_fig10b(data.longterm)),
    "ext-loss": Experiment(("pings",), lambda data: experiment_loss(data.pings)),
    "ext-sharedinfra": Experiment(
        ("longterm",), lambda data: experiment_sharedinfra(data.longterm)),
}
"""Experiment id -> the datasets its driver reads and the driver."""


def run_experiments(
    names: Sequence[str], inputs: ExperimentInputs
) -> List[ExperimentResult]:
    """Run the named experiments in the given order.

    Each driver runs in an ``experiment:<id>`` span on the current tracer.

    Raises:
        KeyError: A name that is not in :data:`EXPERIMENTS`.
    """
    results: List[ExperimentResult] = []
    for name in names:
        driver = EXPERIMENTS[name].run
        with obs_trace.span(f"experiment:{name}"):
            results.append(driver(inputs))
    return results


def run_all_experiments(
    platform: MeasurementPlatform,
    longterm: LongTermDataset,
    pings: ShortTermPingDataset,
    traces: ShortTermTraceDataset,
    include_fig7: bool = True,
    jobs: int = 1,
) -> List[ExperimentResult]:
    """Run every table/figure experiment and return their results.

    Args:
        platform / longterm / pings / traces: The assembled inputs.
        include_fig7: Whether to run the (dataset-building) granularity
            experiment.
        jobs: Worker processes for experiments that build datasets (fig7).
    """
    names = [name for name in EXPERIMENTS if include_fig7 or name != "fig7"]
    return run_experiments(
        names, ExperimentInputs(platform, longterm, pings, traces, jobs)
    )
